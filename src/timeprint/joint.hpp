#pragma once
// joint.hpp — joint reconstruction across adjacent trace-cycles.
//
// Events do not respect trace-cycle boundaries: in the paper's own CAN
// experiment the disputed frame may straddle two windows. A joint
// reconstruction treats n consecutive log entries as one SAT query over
// n·m cycle variables — each window contributes its own XOR system and
// cardinality constraint, while temporal properties range over the
// concatenated span. This extends the paper's single-window SR problem to
// event patterns crossing boundaries.

#include <vector>

#include "timeprint/reconstruct.hpp"

namespace tp::core {

/// Reconstructs signals over a span of consecutive trace-cycles.
class JointReconstructor {
 public:
  /// The encoding must outlive the reconstructor; it is shared by every
  /// trace-cycle (back-to-back logging reuses the timestamp ROM).
  explicit JointReconstructor(const TimestampEncoding& encoding)
      : enc_(&encoding) {}

  /// Register a property over the concatenated span of n·m cycles (cycle
  /// index = trace_cycle_index * m + offset).
  void add_property(const Property& property) { properties_.push_back(&property); }

  /// Enumerate concatenated signals (length entries.size() · m) that
  /// explain every log entry simultaneously, subject to the registered
  /// span properties. Throws std::invalid_argument on an empty span or a
  /// timeprint of the wrong width.
  ReconstructionResult reconstruct(const std::vector<LogEntry>& entries,
                                   const ReconstructionOptions& options = {}) const;

 private:
  const TimestampEncoding* enc_;
  std::vector<const Property*> properties_;
};

}  // namespace tp::core
