#include "timeprint/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/allsat.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/sr_encoder.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace tp::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Auto plan size: 2^6 = 64 cubes balance load for any sane worker count
/// while staying instance-determined (never thread-count determined — that
/// would change the merged output with parallelism).
constexpr std::size_t kAutoCubeVars = 6;

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// One cube of a split: cycles [0, prefix) are fixed, those in `ones` to a
/// change and the rest to none.
struct CubePlanEntry {
  std::size_t prefix = 0;
  std::vector<std::size_t> ones;  ///< ascending, at most k
  double weight = 0.0;            ///< log C(m - prefix, k - |ones|)
};

/// The cube plan for |x| = k over m cycles, k ≤ m. Starting from the whole
/// space, it splits the cube that can hold the most k-subsets on its next
/// cycle, into "change there" and "no change there", until it has `target`
/// cubes or no cube has a free cycle left (one with no change left to
/// place, or with every remaining cycle a change, is a single completion).
/// A split blind to |x| = k is lopsided: on six evenly spaced cycles, the
/// all-zero cube holds half of a k = 5, m = 48 preimage. The leaves
/// partition the space, the plan depends only on (m, k, target), and it
/// comes back largest cube first, ties by plan index.
std::vector<CubePlanEntry> plan_cubes(std::size_t m, std::size_t k, std::size_t target) {
  // log n! by summation, which never overflows (std::lgamma would too, but
  // it writes the global signgam, a race between concurrent splits).
  std::vector<double> log_fact(m + 1, 0.0);
  for (std::size_t n = 2; n <= m; ++n) {
    log_fact[n] = log_fact[n - 1] + std::log(static_cast<double>(n));
  }
  std::vector<CubePlanEntry> plan(1);
  // Max-heap of splittable plan indices: largest weight, then lowest index.
  auto lighter = [&plan](std::size_t a, std::size_t b) {
    return plan[a].weight < plan[b].weight ||
           (plan[a].weight == plan[b].weight && a > b);
  };
  std::vector<std::size_t> heap;
  auto offer = [&](std::size_t i) {
    CubePlanEntry& c = plan[i];
    const std::size_t free = m - c.prefix;
    const std::size_t left = k - c.ones.size();
    // C(free, left) = C(free, free - left); one form rounds both alike.
    const std::size_t r = std::min(left, free - left);
    c.weight = log_fact[free] - log_fact[r] - log_fact[free - r];
    if (r == 0) return;  // a single completion, nothing to split
    heap.push_back(i);
    std::push_heap(heap.begin(), heap.end(), lighter);
  };
  offer(0);
  while (plan.size() < target && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), lighter);
    const std::size_t i = heap.back();
    heap.pop_back();
    CubePlanEntry change = plan[i];
    change.ones.push_back(change.prefix++);
    ++plan[i].prefix;  // plan[i] keeps the "no change" half
    plan.push_back(std::move(change));
    offer(i);
    offer(plan.size() - 1);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const CubePlanEntry& a, const CubePlanEntry& b) {
                     return a.weight > b.weight;
                   });
  return plan;
}

}  // namespace

void BatchOptions::validate() const {
  recon.validate();
  if (cube_vars > 16) {
    throw std::invalid_argument(
        "BatchOptions: cube_vars > 16 would spawn over 65536 cubes");
  }
  if (recon.proof != nullptr) {
    // One DRAT stream certifies one solver's derivations; the batch
    // engines clone solvers per worker/cube, which would leave the stream
    // truncated at the branch point. Certify through the single-solver
    // engines instead.
    throw std::invalid_argument(
        "BatchOptions: proof logging is not supported by the batch engines "
        "(worker clones detach from the proof stream)");
  }
}

std::uint64_t BatchResult::signals_total() const {
  std::uint64_t n = 0;
  for (const ReconstructionResult& r : results) n += r.signals.size();
  return n;
}

bool BatchResult::complete() const {
  return std::all_of(results.begin(), results.end(),
                     [](const ReconstructionResult& r) { return r.complete(); });
}

BatchResult BatchReconstructor::reconstruct_all(const std::vector<LogEntry>& entries,
                                                const BatchOptions& options) const {
  options.validate();
  // Before the prepass: its bit-sliced sweep indexes by timeprint bits.
  for (const LogEntry& e : entries) check_width(rec_.encoding(), e.tp);
  const auto start = Clock::now();

  BatchResult out;
  out.results.resize(entries.size());
  out.threads_used = resolve_threads(options.num_threads);

  obs::Tracer* const tracer = options.recon.tracer;
  obs::Tracer::Span span;
  if (tracer != nullptr) {
    span = tracer->span(
        "batch.reconstruct_all",
        {{"entries", static_cast<std::uint64_t>(entries.size())},
         {"threads", static_cast<std::uint64_t>(out.threads_used)}});
  }

  // Presolve prepass: one bit-sliced sweep (Echelonizer::transform_batch,
  // 64 timeprints per word pass) classifies every entry before any solver
  // exists. Inconsistent entries get their complete empty preimage here;
  // when the encoding's nullity is within the enumeration limit *every*
  // consistent entry is decoded by walking the affine solution space, and
  // the thread pool below has nothing to do.
  const bool use_presolve =
      options.recon.presolve && options.recon.proof == nullptr;
  std::vector<char> resolved(entries.size(), 0);
  std::size_t resolved_count = 0;
  std::uint64_t resolved_signals = 0;
  if (use_presolve && !entries.empty()) {
    const F2Presolve& pre = rec_.presolve();
    std::vector<f2::BitVec> tps;
    tps.reserve(entries.size());
    for (const LogEntry& e : entries) tps.push_back(e.tp);
    const std::vector<F2Presolve::Analysis> analyses = pre.analyze_batch(tps);
    const bool decode_all =
        pre.nullity() <= options.recon.presolve_enum_limit;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (analyses[i].consistent && !decode_all) continue;
      out.results[i] = rec_.decode_fresh(entries[i], options.recon, &analyses[i]);
      resolved[i] = 1;
      ++resolved_count;
      resolved_signals += out.results[i].signals.size();
    }
    if (tracer != nullptr) {
      tracer->event("batch.presolve",
                    {{"resolved", static_cast<std::uint64_t>(resolved_count)},
                     {"entries", static_cast<std::uint64_t>(entries.size())},
                     {"signals", resolved_signals}});
    }
  }

  // Incremental mode: one immutable master template (clone source only —
  // it is never solved on, so concurrent clone() reads race-free) feeding
  // a free-list of per-worker templates. A task pops the most recently
  // returned warm template (hit) or clones the master (miss, at most one
  // per worker thread) and returns it afterwards, so learnt clauses and
  // heuristic state accumulate across the entries each worker serves.
  // The idle list is bounded by options.template_cache_bytes over the
  // templates' retained clause-storage bytes: returning a template that
  // pushes the sum over the bound evicts from the cold (front) end — LRU,
  // keyed by retained-learnt bytes — so a long stream's warm state cannot
  // grow without bound.
  struct IdleTemplate {
    std::size_t bytes;
    std::unique_ptr<TemplateReconstructor> tmpl;
  };
  std::unique_ptr<TemplateReconstructor> master;
  std::deque<IdleTemplate> idle_templates;
  std::size_t idle_bytes = 0;
  util::Mutex template_mu{util::LockRank::kEngine};
  static obs::Counter& template_hits =
      obs::MetricsRegistry::global().counter("incremental.template_hits");
  static obs::Counter& template_misses =
      obs::MetricsRegistry::global().counter("incremental.template_misses");
  static obs::Counter& template_evictions =
      obs::MetricsRegistry::global().counter("incremental.template_evictions");
  static obs::Gauge& template_cache_bytes =
      obs::MetricsRegistry::global().gauge("incremental.template_cache_bytes");
  if (options.recon.incremental && resolved_count < entries.size()) {
    std::size_t k_max = 0;
    for (const LogEntry& e : entries) k_max = std::max(k_max, e.k);
    k_max = std::min(k_max, rec_.encoding().m());
    master = std::make_unique<TemplateReconstructor>(
        rec_, options.recon, k_max == 0 ? rec_.encoding().m() : k_max);
  }
  auto run_entry = [&](const LogEntry& entry) -> ReconstructionResult {
    if (master == nullptr) return rec_.reconstruct(entry, options.recon);
    std::unique_ptr<TemplateReconstructor> tmpl;
    {
      util::MutexLock lock(template_mu);
      if (!idle_templates.empty()) {
        tmpl = std::move(idle_templates.back().tmpl);
        idle_bytes -= idle_templates.back().bytes;
        idle_templates.pop_back();
        template_cache_bytes.set(static_cast<std::int64_t>(idle_bytes));
      }
    }
    if (tmpl != nullptr) {
      template_hits.add(1);
    } else {
      template_misses.add(1);
      tmpl = master->clone();
    }
    ReconstructionResult r = tmpl->reconstruct(entry);
    // Size the template outside the lock (retained_bytes walks solver
    // storage), then return it hot-end first and evict cold-end idles
    // until the cache respects the bound again.
    const std::size_t bytes = tmpl->retained_bytes();
    std::vector<std::unique_ptr<TemplateReconstructor>> evicted;
    {
      util::MutexLock lock(template_mu);
      idle_bytes += bytes;
      idle_templates.push_back({bytes, std::move(tmpl)});
      if (options.template_cache_bytes != 0) {
        while (idle_bytes > options.template_cache_bytes &&
               !idle_templates.empty()) {
          idle_bytes -= idle_templates.front().bytes;
          evicted.push_back(std::move(idle_templates.front().tmpl));
          idle_templates.pop_front();
        }
      }
      template_cache_bytes.set(static_cast<std::int64_t>(idle_bytes));
    }
    // Solver teardown of evicted templates happens outside the lock.
    if (!evicted.empty()) {
      template_evictions.add(static_cast<std::int64_t>(evicted.size()));
      evicted.clear();
    }
    return r;
  };

  util::Mutex mu{util::LockRank::kEngine};
  std::size_t completed = resolved_count;
  std::uint64_t found = resolved_signals;
  {
    util::ThreadPool pool(out.threads_used);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (resolved[i]) continue;
      pool.submit([&, i] {
        ReconstructionResult r = run_entry(entries[i]);
        util::MutexLock lock(mu);
        found += r.signals.size();
        out.results[i] = std::move(r);
        ++completed;
        if (tracer != nullptr) {
          tracer->event("batch.progress",
                        {{"done", static_cast<std::uint64_t>(completed)},
                         {"total", static_cast<std::uint64_t>(entries.size())},
                         {"entry", static_cast<std::uint64_t>(i)},
                         {"signals", found}});
        }
        if (options.on_progress) {
          options.on_progress({entries.size(), completed, i, found});
        }
      });
    }
    pool.wait_idle();
  }

  for (const ReconstructionResult& r : out.results) out.stats += r.stats;
  out.seconds_total = std::chrono::duration<double>(Clock::now() - start).count();
  if (span.active()) {
    span.add("signals", out.signals_total());
    span.add("complete", out.complete());
    span.finish();
  }
  return out;
}

ReconstructionResult BatchReconstructor::reconstruct_split(
    const LogEntry& entry, const BatchOptions& options) const {
  options.validate();
  const ReconstructionOptions& ropts = options.recon;
  obs::Tracer* const tracer = ropts.tracer;

  // The split's SAT stage. It keeps the raw rows whatever the presolve
  // found, so the cube plan fixes cycle variables.
  const auto sat_stage = [&](const F2Presolve::Analysis*, ReconstructionResult& result) {
    const auto start = Clock::now();
    auto elapsed = [&start] {
      return std::chrono::duration<double>(Clock::now() - start).count();
    };
    Reconstructor::SatModels out;

    // Encode the SR instance once; every cube branches from this state.
    // Always the single backend: cube-and-conquer is already the parallel
    // axis here, and nesting portfolio races inside cubes oversubscribes.
    const std::unique_ptr<sat::SolverInterface> base =
        sat::SolverFactory::make(ropts.solver_options());
    std::vector<sat::Var> cycle_vars;
    const bool ok = rec_.encode_base(*base, cycle_vars, entry, ropts);
    result.num_vars = base->num_vars();
    result.num_clauses = base->num_clauses();
    result.num_xors = base->num_xors();
    result.stats = base->stats();  // encode-time level-0 propagation effort
    if (!ok || !base->okay()) {
      out.run.final_status = sat::Status::Unsat;
      if (tracer != nullptr) tracer->event("sr.trivial_unsat");
      return out;
    }

    const std::size_t m = cycle_vars.size();
    const std::size_t g = options.cube_vars != 0 ? options.cube_vars : kAutoCubeVars;
    const std::vector<CubePlanEntry> plan = plan_cubes(m, entry.k, std::size_t{1} << g);
    const std::size_t ncubes = plan.size();

    struct Cube {
      sat::AllSatResult models;
      sat::SolverStats stats;
      double start = 0.0;  // split-relative second its enumeration began
      bool done = false;
    };
    std::vector<Cube> cubes(ncubes);

    const std::uint64_t cap = ropts.max_solutions;
    std::atomic<bool> cancel{false};   // stops in-flight solves cooperatively
    bool cap_reached = false;          // guarded by `mu`
    util::Mutex mu{util::LockRank::kEngine};
    std::size_t completed = 0;
    std::uint64_t found = 0;

    {
      // Tasks take cubes in plan order whatever order the pool runs them
      // in, so the largest cubes start first and the leading cubes that the
      // prefix rule below waits on finish early.
      std::atomic<std::size_t> next_cube{0};
      util::ThreadPool pool(resolve_threads(options.num_threads));
      for (std::size_t task = 0; task < ncubes; ++task) {
        pool.submit([&] {
          const std::size_t ci = next_cube.fetch_add(1);
          // Fold an external cancellation into the shared token (polled at
          // cube granularity; the token below is polled per conflict).
          if (ropts.limits.interrupt != nullptr &&
              ropts.limits.interrupt->load(std::memory_order_relaxed)) {
            cancel.store(true, std::memory_order_relaxed);
          }

          sat::AllSatOptions as;
          as.max_models = cap;
          as.limits = ropts.limits;
          as.limits.interrupt = &cancel;
          as.tracer = tracer;
          if (ropts.limits.max_seconds > 0) {
            // One global deadline: each cube gets what is left of it.
            as.limits.max_seconds = ropts.limits.max_seconds - elapsed();
          }
          const CubePlanEntry& spec = plan[ci];
          as.assumptions.reserve(spec.prefix);
          auto one = spec.ones.begin();
          for (std::size_t j = 0; j < spec.prefix; ++j) {
            const bool change = one != spec.ones.end() && *one == j;
            if (change) ++one;
            as.assumptions.push_back(sat::Lit(cycle_vars[j], /*negated=*/!change));
          }

          Cube cube;
          const bool deadline_passed =
              ropts.limits.max_seconds > 0 && as.limits.max_seconds <= 0;
          if (deadline_passed || cancel.load(std::memory_order_relaxed)) {
            cube.models.final_status = sat::Status::Unknown;
          } else {
            const std::unique_ptr<sat::SolverInterface> worker = base->clone();
            cube.start = elapsed();
            cube.models = sat::enumerate_models(*worker, cycle_vars, as);
            cube.stats = worker->stats();
          }
          cube.done = true;
          if (tracer != nullptr) {
            tracer->event(
                "batch.cube",
                {{"cube", static_cast<std::uint64_t>(ci)},
                 {"models", static_cast<std::uint64_t>(cube.models.models.size())},
                 {"status", sat::to_string(cube.models.final_status)},
                 {"seconds", cube.models.seconds_total}});
          }

          util::MutexLock lock(mu);
          found += cube.models.models.size();
          cubes[ci] = std::move(cube);
          ++completed;
          // Prefix rule: once cubes 0..p are all finished and already
          // supply `cap` models, later cubes cannot contribute to the
          // (cube-ordered, truncated) output — stop them. Never triggered by
          // partial results: before the first cancellation every finished
          // cube ran to its own natural end, so the rule's decision is
          // schedule-independent.
          if (!cap_reached && !cancel.load(std::memory_order_relaxed)) {
            std::uint64_t prefix = 0;
            for (const Cube& q : cubes) {
              if (!q.done) break;
              prefix += q.models.models.size();
              if (prefix >= cap) {
                cap_reached = true;
                cancel.store(true, std::memory_order_relaxed);
                break;
              }
            }
          }
          if (options.on_progress) {
            options.on_progress({ncubes, completed, ci, found});
          }
        });
      }
      pool.wait_idle();
    }

    // Deterministic merge: plan order first, discovery order within a cube.
    bool any_unknown = false;
    for (Cube& c : cubes) {
      result.stats += c.stats;
      if (c.models.final_status == sat::Status::Unknown) any_unknown = true;
      for (std::size_t i = 0; i < c.models.models.size() && out.run.models.size() < cap; ++i) {
        out.run.models.push_back(std::move(c.models.models[i]));
        out.run.seconds_to_model.push_back(c.start + c.models.seconds_to_model[i]);
      }
    }
    if (cap_reached) {
      out.run.final_status = sat::Status::Sat;  // cap hit, enumeration cut short
    } else if (any_unknown) {
      out.run.final_status = sat::Status::Unknown;  // a limit or interrupt fired
    } else {
      out.run.final_status = sat::Status::Unsat;  // every cube fully enumerated
    }
    return out;
  };
  return rec_.decode_entry(entry, ropts, sat_stage, nullptr, "split");
}

}  // namespace tp::core
