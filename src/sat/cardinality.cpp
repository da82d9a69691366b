#include "sat/cardinality.hpp"

#include <cassert>

namespace tp::sat {

namespace {

// Sinz's sequential counter (LT-SEQ) over lits[0..n) and a bound k with
// 1 <= k < n: one register r(i, j) per i < n, j < k meaning "at least j+1 of
// lits[0..i] are true". At-most-k needs only the upward half (a true count
// sets its registers; a literal after a full count is banned), at-least-k
// only the downward half (a true register has its count behind it; the
// last row reaches k); exactly-k emits both over the same n·k registers.
class SinzCounter {
 public:
  SinzCounter(SolverInterface& s, const std::vector<Lit>& lits, std::size_t k)
      : s_(s), lits_(lits), k_(k) {
    assert(k >= 1 && k < lits.size());
    reg_.reserve(lits.size() * k);
    for (std::size_t i = 0; i < lits.size() * k; ++i) reg_.push_back(mk_lit(s.new_var()));
    for (std::size_t j = 1; j < k; ++j) add({~r(0, j)});  // lits[0..0] count at most 1
  }

  void upward() {
    add({~lits_[0], r(0, 0)});
    for (std::size_t i = 1; i < lits_.size(); ++i) {
      add({~lits_[i], r(i, 0)});
      add({~r(i - 1, 0), r(i, 0)});
      for (std::size_t j = 1; j < k_; ++j) {
        add({~lits_[i], ~r(i - 1, j - 1), r(i, j)});
        add({~r(i - 1, j), r(i, j)});
      }
      add({~lits_[i], ~r(i - 1, k_ - 1)});
    }
  }

  void downward() {
    add({~r(0, 0), lits_[0]});
    for (std::size_t i = 1; i < lits_.size(); ++i) {
      add({~r(i, 0), r(i - 1, 0), lits_[i]});
      for (std::size_t j = 1; j < k_; ++j) {
        add({~r(i, j), r(i - 1, j), lits_[i]});
        add({~r(i, j), r(i - 1, j), r(i - 1, j - 1)});
      }
    }
    add({r(lits_.size() - 1, k_ - 1)});
  }

  bool ok() const { return ok_; }

 private:
  Lit r(std::size_t i, std::size_t j) const { return reg_[i * k_ + j]; }
  void add(std::vector<Lit> c) { ok_ = s_.add_clause(std::move(c)) && ok_; }

  SolverInterface& s_;
  const std::vector<Lit>& lits_;
  std::size_t k_;
  std::vector<Lit> reg_;
  bool ok_ = true;
};

// Every literal forced to `value`: the count-0 and count-n cases.
bool fix_all(SolverInterface& solver, const std::vector<Lit>& lits, bool value) {
  bool ok = true;
  for (Lit l : lits) ok = solver.add_clause({value ? l : ~l}) && ok;
  return ok;
}

// Recursive totalizer build over lits[lo, hi).
std::vector<Lit> totalizer_build(SolverInterface& s, const std::vector<Lit>& lits,
                                 std::size_t lo, std::size_t hi, int cap,
                                 bool& ok) {
  if (hi - lo == 1) return {lits[lo]};
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::vector<Lit> a = totalizer_build(s, lits, lo, mid, cap, ok);
  const std::vector<Lit> b = totalizer_build(s, lits, mid, hi, cap, ok);

  const int p = static_cast<int>(a.size());
  const int q = static_cast<int>(b.size());
  const int size = std::min(p + q, cap);
  std::vector<Lit> r;
  r.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) r.push_back(mk_lit(s.new_var()));

  auto add = [&](std::vector<Lit> c) { ok = s.add_clause(std::move(c)) && ok; };

  for (int alpha = 0; alpha <= p; ++alpha) {
    for (int beta = 0; beta <= q; ++beta) {
      const int sigma = alpha + beta;
      if (sigma >= 1) {
        // >= direction: alpha of a and beta of b true => at least
        // min(sigma, cap) total (saturating at the cap).
        const int target = std::min(sigma, cap);
        std::vector<Lit> c;
        if (alpha > 0) c.push_back(~a[static_cast<std::size_t>(alpha - 1)]);
        if (beta > 0) c.push_back(~b[static_cast<std::size_t>(beta - 1)]);
        c.push_back(r[static_cast<std::size_t>(target - 1)]);
        add(std::move(c));
      }
      if (sigma + 1 <= size) {
        // <= direction: at most alpha of a and at most beta of b true =>
        // fewer than sigma+1 total.
        std::vector<Lit> c;
        if (alpha < p) c.push_back(a[static_cast<std::size_t>(alpha)]);
        if (beta < q) c.push_back(b[static_cast<std::size_t>(beta)]);
        c.push_back(~r[static_cast<std::size_t>(sigma)]);
        add(std::move(c));
      }
    }
  }
  return r;
}

}  // namespace

std::vector<Lit> totalizer_outputs(SolverInterface& solver, const std::vector<Lit>& lits,
                                   int cap) {
  assert(cap >= 1);
  if (lits.empty()) return {};
  bool ok = true;
  return totalizer_build(solver, lits, 0, lits.size(), cap, ok);
}

bool encode_at_most(SolverInterface& solver, const std::vector<Lit>& lits, std::size_t k,
                    CardEncoding enc) {
  if (k >= lits.size()) return solver.okay();
  if (k == 0) return fix_all(solver, lits, false);
  if (enc == CardEncoding::SequentialCounter) {
    SinzCounter counter(solver, lits, k);
    counter.upward();
    return counter.ok();
  }
  const std::vector<Lit> outs = totalizer_outputs(solver, lits, static_cast<int>(k) + 1);
  if (outs.size() >= k + 1) return solver.add_clause({~outs[k]});
  return solver.okay();
}

bool encode_at_least(SolverInterface& solver, const std::vector<Lit>& lits, std::size_t k,
                     CardEncoding enc) {
  if (k == 0) return solver.okay();
  if (k > lits.size()) return solver.add_clause({});  // impossible
  if (enc == CardEncoding::Totalizer) {
    const std::vector<Lit> outs = totalizer_outputs(solver, lits, static_cast<int>(k));
    return solver.add_clause({outs[k - 1]});
  }
  if (k == lits.size()) return fix_all(solver, lits, true);
  SinzCounter counter(solver, lits, k);
  counter.downward();
  return counter.ok();
}

bool encode_exactly(SolverInterface& solver, const std::vector<Lit>& lits, std::size_t k,
                    CardEncoding enc) {
  if (k > lits.size()) return solver.add_clause({});  // impossible
  if (k == 0) return encode_at_most(solver, lits, 0, enc);
  if (enc == CardEncoding::Totalizer) {
    // One shared totalizer serves both bounds.
    const std::vector<Lit> outs = totalizer_outputs(solver, lits, static_cast<int>(k) + 1);
    bool ok = solver.add_clause({outs[k - 1]});
    if (outs.size() >= k + 1) ok = solver.add_clause({~outs[k]}) && ok;
    return ok;
  }
  if (k == lits.size()) return encode_at_least(solver, lits, k, enc);
  SinzCounter counter(solver, lits, k);
  counter.upward();
  counter.downward();
  return counter.ok();
}

}  // namespace tp::sat
