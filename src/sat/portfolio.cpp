#include "sat/portfolio.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace tp::sat {

namespace {

/// Retire period for the shared-clause dedup set: past this many distinct
/// clauses the set is cleared (a re-share after that is harmless).
constexpr std::size_t kSharedHashCap = 1u << 16;

/// The k-th diversified variant of `base` (k = 0 is the first *variant*;
/// the portfolio's member 0 runs `base` itself). Variants never carry the
/// proof sink, so they are free to enable the Gaussian engine even when
/// the base could not.
SolverOptions diversify(const SolverOptions& base, std::size_t k,
                        PortfolioDiversity diversity) {
  SolverOptions o = base;
  o.proof = nullptr;

  auto gauss_variant = [&o, &base](std::size_t g) {
    switch (g % 4) {
      case 0:  // the opposite XOR engine of the base
        o.use_gauss = !base.use_gauss;
        o.gauss_max_unassigned = 0;
        break;
      case 1:  // Gauss with the endgame gate wide open
        o.use_gauss = true;
        o.gauss_max_unassigned = SIZE_MAX;
        break;
      case 2:  // watched XOR, short chunks (cheap reasons)
        o.use_gauss = false;
        o.xor_chunk_size = 6;
        break;
      case 3:  // watched XOR, long chunks (fewer link variables)
        o.use_gauss = false;
        o.xor_chunk_size = 14;
        break;
    }
  };
  auto heuristic_variant = [&o, &base](std::size_t h) {
    switch (h % 4) {
      case 0:  // hot: rapid restarts, fast-decaying activities
        o.restart_base = std::max(25, base.restart_base / 4);
        o.var_decay = 0.90;
        break;
      case 1:  // stable: long runs between restarts, slow decay
        o.restart_base = base.restart_base * 4;
        o.var_decay = 0.99;
        break;
      case 2:  // inverted default phase
        o.default_polarity = !base.default_polarity;
        break;
      case 3:  // no phase memory, medium-hot restarts
        o.phase_saving = !base.phase_saving;
        o.restart_base = std::max(25, base.restart_base / 2);
        break;
    }
  };

  switch (diversity) {
    case PortfolioDiversity::GaussSplit:
      gauss_variant(k);
      break;
    case PortfolioDiversity::Heuristics:
      heuristic_variant(k);
      break;
    case PortfolioDiversity::Mixed:
      if (k % 2 == 0) {
        gauss_variant(k / 2);
      } else {
        heuristic_variant(k / 2);
      }
      break;
  }
  return o;
}

/// Order-independent clause fingerprint for the share dedup set.
std::uint64_t clause_hash(std::vector<Lit> lits) {
  std::sort(lits.begin(), lits.end());
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (Lit l : lits) {
    h ^= static_cast<std::uint64_t>(l.code()) + 1;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

PortfolioSolver::PortfolioSolver(const SolverOptions& base,
                                 const PortfolioOptions& portfolio)
    : base_(base), popts_(portfolio) {
  popts_.members = std::max<std::size_t>(1, popts_.members);
  proof_member_ = base.proof != nullptr ? 0 : -1;

  members_.reserve(popts_.members);
  for (std::size_t i = 0; i < popts_.members; ++i) {
    Member m;
    m.opts = i == 0 ? base : diversify(base, i - 1, popts_.diversity);
    m.solver = std::make_unique<Solver>(m.opts);
    members_.push_back(std::move(m));
  }

  stats_.wins.assign(members_.size(), 0);
  win_counters_.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    win_counters_.push_back(&obs::MetricsRegistry::global().counter(
        "portfolio.wins.member" + std::to_string(i)));
  }
}

PortfolioSolver::PortfolioSolver(const PortfolioSolver& other)
    : base_(other.base_),
      popts_(other.popts_),
      proof_member_(-1),  // a ProofSink certifies exactly one instance
      ext_vars_(other.ext_vars_),
      win_counters_(other.win_counters_) {
  base_.proof = nullptr;
  members_.reserve(other.members_.size());
  for (const Member& m : other.members_) {
    Member c;
    c.solver = m.solver->clone_solver();  // detaches the proof by contract
    c.opts = m.opts;
    c.opts.proof = nullptr;
    c.ext2int = m.ext2int;
    c.int2ext = m.int2ext;
    members_.push_back(std::move(c));
  }
  stats_.wins.assign(members_.size(), 0);
}

PortfolioSolver::~PortfolioSolver() = default;

util::ThreadPool& PortfolioSolver::pool() {
  if (!pool_) {
    const std::size_t threads =
        popts_.num_threads != 0 ? popts_.num_threads : members_.size();
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  return *pool_;
}

const SolverOptions& PortfolioSolver::member_options(std::size_t i) const {
  return members_[i].opts;
}

Var PortfolioSolver::new_var() {
  const Var ext = ext_vars_++;
  for (Member& m : members_) {
    const Var iv = m.solver->new_var();
    // Catch up over any private auxiliaries the member minted since the
    // last external variable (XOR chunk links).
    m.int2ext.resize(static_cast<std::size_t>(iv) + 1, -1);
    m.int2ext[static_cast<std::size_t>(iv)] = ext;
    m.ext2int.push_back(iv);
  }
  return ext;
}

bool PortfolioSolver::add_clause(std::vector<Lit> lits) {
  bool ok = true;
  for (Member& m : members_) {
    std::vector<Lit> mapped;
    mapped.reserve(lits.size());
    for (Lit l : lits) mapped.push_back(to_member(m, l));
    ok = m.solver->add_clause(std::move(mapped)) && ok;
  }
  return ok;
}

bool PortfolioSolver::add_xor(std::vector<Var> vars, bool rhs) {
  bool ok = true;
  for (Member& m : members_) {
    std::vector<Var> mapped;
    mapped.reserve(vars.size());
    for (Var v : vars) {
      mapped.push_back(m.ext2int[static_cast<std::size_t>(v)]);
    }
    ok = m.solver->add_xor(std::move(mapped), rhs) && ok;
  }
  return ok;
}

Status PortfolioSolver::solve(const SolveLimits& limits) {
  static obs::Counter& races_m =
      obs::MetricsRegistry::global().counter("portfolio.races");
  static obs::Counter& sat_m =
      obs::MetricsRegistry::global().counter("portfolio.sat");
  static obs::Counter& unsat_m =
      obs::MetricsRegistry::global().counter("portfolio.unsat");
  static obs::Counter& unknown_m =
      obs::MetricsRegistry::global().counter("portfolio.unknown");
  static obs::Counter& cancelled_m =
      obs::MetricsRegistry::global().counter("portfolio.cancelled_members");

  std::vector<Lit> assumed;
  assumed.swap(pending_);
  winner_ = -1;
  failed_.clear();

  // An already-set caller token means "don't start": a fast member could
  // otherwise settle the race before the coordinator's relay loop ever
  // observes the token, making pre-cancelled solves nondeterministic.
  if (limits.interrupt != nullptr &&
      limits.interrupt->load(std::memory_order_relaxed)) {
    unknown_m.add(1);
    return Status::Unknown;
  }

  // A member that already knows the formula unsatisfiable settles the race
  // before it starts. In proof mode only the sink's owner may report it —
  // anyone else's early detection is real but uncertified, and member 0
  // will derive the same verdict through its own (logged) propagation.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].solver->okay()) continue;
    if (proof_member_ >= 0 && static_cast<int>(i) != proof_member_) continue;
    winner_ = static_cast<int>(i);
    unsat_m.add(1);
    return Status::Unsat;
  }

  const std::size_t n = members_.size();
  if (n == 1) {
    // Degenerate portfolio: solve inline, no threads.
    Member& m = members_[0];
    std::vector<Lit> as;
    as.reserve(assumed.size());
    for (Lit l : assumed) as.push_back(to_member(m, l));
    const Status st = m.solver->solve_assuming(as, limits);
    if (st != Status::Unknown) {
      winner_ = 0;
      ++stats_.wins[0];
      win_counters_[0]->add(1);
    }
    if (st == Status::Unsat) {
      for (Lit l : m.solver->failed()) {
        const Var ev = int_to_ext(m, l.var());
        assert(ev >= 0 && "failed assumption maps to an external variable");
        failed_.push_back(Lit(ev, l.negated()));
      }
    }
    (st == Status::Sat ? sat_m : st == Status::Unsat ? unsat_m : unknown_m)
        .add(1);
    return st;
  }

  ++stats_.races;
  races_m.add(1);
  race_stop_.store(false, std::memory_order_relaxed);

  std::vector<Status> results(n, Status::Unknown);
  util::Mutex mtx{util::LockRank::kPortfolio};
  util::CondVar cv;
  std::size_t done = 0;
  int first = -1;               // winning member, first usable verdict
  int uncertified_unsat = -1;   // proofless Unsat while a sink is attached

  util::ThreadPool& tp = pool();
  for (std::size_t i = 0; i < n; ++i) {
    tp.submit([this, i, &assumed, &results, &mtx, &cv, &done, &first,
               &uncertified_unsat, limits] {
      Member& m = members_[i];
      std::vector<Lit> as;
      as.reserve(assumed.size());
      for (Lit l : assumed) as.push_back(to_member(m, l));
      SolveLimits member_limits = limits;
      member_limits.interrupt = &race_stop_;
      const Status st = m.solver->solve_assuming(as, member_limits);
      {
        util::MutexLock lock(mtx);
        results[i] = st;
        ++done;
        if (st != Status::Unknown) {
          // In proof mode an Unsat is only usable from the sink's owner;
          // a Sat is usable from anyone (models are verified
          // solver-independently).
          const bool usable = proof_member_ < 0 ||
                              static_cast<int>(i) == proof_member_ ||
                              st == Status::Sat;
          if (usable) {
            if (first < 0) {
              first = static_cast<int>(i);
              race_stop_.store(true, std::memory_order_relaxed);
            }
          } else if (uncertified_unsat < 0) {
            uncertified_unsat = static_cast<int>(i);
          }
        }
        // Notify while still holding mtx: the coordinator destroys cv and
        // mtx (stack locals of solve()) as soon as it observes done == n,
        // which it can only do after this worker releases the lock — so
        // an unlocked notify here would race the destruction (TSan-caught
        // use-after-free when the coordinator wakes by timeout instead of
        // by this notification).
        cv.notify_all();
      }
    });
  }

  {
    // Join the race, relaying the caller's interrupt token into it: the
    // members only watch race_stop_, so an external cancellation must be
    // copied over by this coordinating thread.
    util::MutexLock lock(mtx);
    while (done < n) {
      cv.wait_for(mtx, std::chrono::milliseconds(2));
      if (limits.interrupt != nullptr &&
          limits.interrupt->load(std::memory_order_relaxed)) {
        race_stop_.store(true, std::memory_order_relaxed);
      }
    }
  }

  Status st = Status::Unknown;
  if (first >= 0) {
    winner_ = first;
    st = results[static_cast<std::size_t>(first)];
    ++stats_.wins[static_cast<std::size_t>(first)];
    win_counters_[static_cast<std::size_t>(first)]->add(1);
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) != first && results[i] == Status::Unknown) {
        ++stats_.cancelled_members;
        cancelled_m.add(1);
      }
    }
    if (st == Status::Unsat) {
      const Member& w = members_[static_cast<std::size_t>(first)];
      for (Lit l : w.solver->failed()) {
        const Var ev = int_to_ext(w, l.var());
        assert(ev >= 0 && "failed assumption maps to an external variable");
        failed_.push_back(Lit(ev, l.negated()));
      }
    }
    share_clauses(static_cast<std::size_t>(first));
  } else if (uncertified_unsat >= 0) {
    // A proofless member derived Unsat but the sink's owner ran out of
    // budget first. Withhold the verdict — Unknown is always legal under
    // limits — so every *reported* UNSAT stays DRAT-checkable. (Without
    // limits this branch is unreachable: member 0 always concludes.)
    st = Status::Unknown;
  }

  switch (st) {
    case Status::Sat:
      ++stats_.sat_races;
      sat_m.add(1);
      break;
    case Status::Unsat:
      ++stats_.unsat_races;
      unsat_m.add(1);
      break;
    case Status::Unknown:
      ++stats_.unknown_races;
      unknown_m.add(1);
      break;
  }
  return st;
}

void PortfolioSolver::share_clauses(std::size_t winner) {
  static obs::Counter& exported_m =
      obs::MetricsRegistry::global().counter("portfolio.clauses_exported");
  static obs::Counter& imported_m =
      obs::MetricsRegistry::global().counter("portfolio.clauses_imported");

  // Proof mode shares nothing: a foreign clause is not RUP in any member's
  // own derivation stream.
  if (popts_.share_max_clauses == 0 || proof_member_ >= 0 ||
      members_.size() < 2) {
    return;
  }

  std::vector<std::pair<std::vector<Lit>, std::uint32_t>> exported;
  members_[winner].solver->export_learnts(popts_.share_max_lbd,
                                          popts_.share_max_clauses, exported);
  const Member& w = members_[winner];
  for (auto& [lits, lbd] : exported) {
    std::vector<Lit> ext;
    ext.reserve(lits.size());
    bool mappable = true;
    for (Lit l : lits) {
      const Var ev = int_to_ext(w, l.var());
      if (ev < 0) {  // touches a member-private chunk link: untranslatable
        mappable = false;
        break;
      }
      ext.push_back(Lit(ev, l.negated()));
    }
    if (!mappable) continue;
    if (!shared_hashes_.insert(clause_hash(ext)).second) continue;

    ++stats_.clauses_exported;
    exported_m.add(1);
    for (std::size_t j = 0; j < members_.size(); ++j) {
      if (j == winner) continue;
      Member& m = members_[j];
      std::vector<Lit> mapped;
      mapped.reserve(ext.size());
      for (Lit l : ext) mapped.push_back(to_member(m, l));
      m.solver->import_learnt(std::move(mapped), lbd);
      ++stats_.clauses_imported;
      imported_m.add(1);
    }
  }
  if (shared_hashes_.size() > kSharedHashCap) shared_hashes_.clear();
}

LBool PortfolioSolver::model(Var v) const {
  assert(winner_ >= 0 && "model() requires a preceding Sat verdict");
  const Member& m = members_[static_cast<std::size_t>(winner_)];
  return m.solver->model_value(m.ext2int[static_cast<std::size_t>(v)]);
}

bool PortfolioSolver::okay() const {
  for (const Member& m : members_) {
    if (!m.solver->okay()) return false;
  }
  return true;
}

LBool PortfolioSolver::fixed_value(Var v) const {
  const Member& m = members_.front();
  return m.solver->fixed_value(m.ext2int[static_cast<std::size_t>(v)]);
}

bool PortfolioSolver::simplify() {
  for (Member& m : members_) m.solver->simplify();
  return okay();
}

SolverStats PortfolioSolver::stats() const {
  SolverStats total;
  for (const Member& m : members_) total += m.solver->stats();
  return total;
}

std::size_t PortfolioSolver::num_clauses() const {
  return members_.front().solver->num_clauses();
}

std::size_t PortfolioSolver::num_xors() const {
  return members_.front().solver->num_xors();
}

std::size_t PortfolioSolver::num_learnts() const {
  return members_.front().solver->num_learnts();
}

void PortfolioSolver::set_tracer(obs::Tracer* tracer) {
  base_.tracer = tracer;
  for (Member& m : members_) {
    m.opts.tracer = tracer;
    m.solver->set_tracer(tracer);
  }
}

std::unique_ptr<SolverInterface> PortfolioSolver::clone() const {
  return std::unique_ptr<SolverInterface>(new PortfolioSolver(*this));
}

}  // namespace tp::sat
