// ingest — the deployment path, no decoding. Per session the SoC model with
// temperature-compensated refresh ("hardware") drives the register-level
// agg-log unit, whose entries leave over the UART (serialize_entry ->
// UartTx -> line -> UartRx -> deserialize_entry) into a TraceChannel. A
// second thread runs the refresh-free SoC ("simulation") through a
// StreamingLogger, and soc::compare_logs finds where the two diverge.
//
// The SoC's change bits are buffered per session, so each layer runs its
// whole session in one call and is timed on its own. Simulated figures come
// from an unvalidated model: the repository holds no hardware reference.

#include <algorithm>
#include <exception>
#include <thread>

#include "common.hpp"
#include "rtlsim/agg_log.hpp"
#include "rtlsim/framing.hpp"
#include "rtlsim/sim.hpp"
#include "rtlsim/uart.hpp"
#include "soc/system.hpp"
#include "timeprint/archive.hpp"

namespace perfbench {

namespace {

using tp::core::LogEntry;

constexpr std::size_t kM = 256;
constexpr std::size_t kB = 24;
constexpr std::size_t kDepth = 4;
constexpr std::uint64_t kEncodingSeed = 2019;
constexpr std::size_t kTraceCycles = 256;  // per session
constexpr std::size_t kCycles = kTraceCycles * kM;
constexpr int kSweeps = 512;  // the demo program halts near the session's end
constexpr int kSetupReps = 21;

tp::soc::SocSystem::Config soc_config(const std::vector<tp::soc::Instr>& program,
                                      bool hardware, double ambient_c,
                                      std::uint64_t phase) {
  tp::soc::SocSystem::Config cfg;
  cfg.program = program;
  cfg.mem.wait_states = 1;
  if (hardware) {
    cfg.mem.refresh_enabled = true;
    cfg.mem.ambient_c = ambient_c;
    cfg.mem.refresh_base_interval = 2800;
    cfg.mem.refresh_slope = 30.0;
    cfg.mem.refresh_phase = phase;
  }
  return cfg;
}

std::vector<char> run_soc_bits(tp::soc::SocSystem::Config cfg) {
  tp::soc::SocSystem soc(std::move(cfg));
  std::vector<char> bits(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c) {
    soc.tick();
    bits[c] = soc.addr_changed() ? 1 : 0;
  }
  return bits;
}

struct Session {
  double ambient_c = 0.0;
  std::uint64_t phase = 0;
  std::uint64_t window_from = 0;  // archive window query, in clock cycles
};

struct SessionRun {
  double wall = 0.0;
  std::size_t max_queue = 0;
  std::size_t framing_errors = 0;
  std::string answer;
  std::vector<LogEntry> archived;
};

}  // namespace

Outcome run_ingest(const Args& args, Trace& trace) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<tp::core::TimestampEncoding> enc;
  std::vector<tp::soc::Instr> program;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    {
      auto s = trace.span("encoding", "encoding.build", 0);
      enc = std::make_unique<tp::core::TimestampEncoding>(
          tp::core::TimestampEncoding::random_constrained(kM, kB, kDepth, kEncodingSeed));
    }
    program = tp::soc::demo_image(16, kSweeps);
    setup_s.push_back(seconds_since(t0));
  }
  const std::size_t payload = tp::rtl::entry_payload_bits(kM, kB);
  const std::size_t divisor = kM / (payload + 2);  // one frame per trace-cycle fits

  auto session_at = [&](std::size_t u) {
    tp::f2::Rng rng(derive_seed(args.seed, 4, u));
    Session s;
    s.ambient_c = 45.0 + static_cast<double>(rng.below(21));
    s.phase = rng.below(2800);
    s.window_from = rng.below(kCycles - 8 * kM);
    return s;
  };

  auto process = [&](std::size_t u, Trace& tr) {
    const Session session = session_at(u);
    SessionRun run;
    const auto t0 = Clock::now();
    auto root = tr.span("bench", "bench.unit", u);

    // Simulation side, in parallel.
    std::vector<char> sim_bits;
    tp::core::TraceLog sim_log(kM, kB);
    std::exception_ptr sim_error;
    std::jthread sim_thread([&, parent = root.id()] {
      try {
        Trace::Adopt adopt(&tr, parent);
        {
          auto s = tr.span("soc", "soc.tick_sim", u);
          sim_bits = run_soc_bits(soc_config(program, false, 25.0, 0));
        }
        auto s = tr.span("logger", "logger.tick_sim", u);
        tp::core::StreamingLogger logger(*enc);
        for (char b : sim_bits) logger.tick(b != 0);
        sim_log = logger.log();
      } catch (...) {
        sim_error = std::current_exception();
      }
    });

    std::vector<char> hw_bits;
    {
      auto s = tr.span("soc", "soc.tick_hw", u);
      hw_bits = run_soc_bits(soc_config(program, true, session.ambient_c, session.phase));
    }
    std::vector<std::vector<bool>> frames;
    {
      auto s = tr.span("rtlsim", "rtlsim.agglog_uart", u);
      tp::rtl::Simulator sim;
      tp::rtl::AggLogUnit unit(*enc);
      tp::rtl::UartTx tx(divisor);
      tp::rtl::UartRx rx(divisor, payload, [&tx] { return tx.line(); });
      sim.add(unit);
      sim.add(tx);
      sim.add(rx);
      for (char b : hw_bits) {
        unit.set_change(b != 0);
        sim.step();
        if (unit.entry_valid()) tx.send(tp::rtl::serialize_entry(unit.entry(), kM));
      }
      unit.set_change(false);
      for (std::size_t i = 0; i < (payload + 2) * divisor + 8 && rx.frames().size() < kTraceCycles; ++i) {
        sim.step();
      }
      frames = rx.frames();
      run.max_queue = tx.max_queue_depth();
      run.framing_errors = rx.framing_errors();
    }
    tp::core::TraceChannel channel(kM, kB);
    {
      auto s = tr.span("rtlsim", "rtlsim.deserialize", u);
      run.archived.reserve(frames.size());
      for (const auto& f : frames) run.archived.push_back(tp::rtl::deserialize_entry(f, kM, kB));
    }
    {
      auto s = tr.span("archive", "archive.append", u);
      for (const LogEntry& e : run.archived) channel.append(e);
    }
    tp::core::TraceLog hw_log(kM, kB);
    {
      auto s = tr.span("logger", "logger.tick_hw", u);
      tp::core::StreamingLogger logger(*enc);
      for (char b : hw_bits) logger.tick(b != 0);
      hw_log = logger.log();
    }
    std::size_t window_entries = 0;
    {
      auto s = tr.span("archive", "archive.window_query", u);
      window_entries = channel.in_window(session.window_from, session.window_from + 4 * kM).size();
    }
    sim_thread.join();
    if (sim_error) std::rethrow_exception(sim_error);
    tp::soc::Divergence d{};
    {
      auto s = tr.span("soc", "soc.compare_logs", u);
      tp::core::TraceLog archived_log(kM, kB);
      for (const LogEntry& e : run.archived) archived_log.append(e);
      d = tp::soc::compare_logs(archived_log, sim_log);
    }
    run.wall = seconds_since(t0);

    auto s = tr.span("check", "check.ingest", u);
    std::size_t expected = kTraceCycles;
    for (std::size_t t = 0; t < kTraceCycles; ++t) {
      if (!std::equal(hw_bits.begin() + t * kM, hw_bits.begin() + (t + 1) * kM,
                      sim_bits.begin() + t * kM)) {
        expected = t;
        break;
      }
    }
    // [from, from + 4m) overlaps 4 trace-cycles, or 5 when not aligned.
    std::string failure = check_ingest(run.archived, hw_log, run.framing_errors,
                                       d.first_entry_mismatch, expected);
    if (failure.empty() && window_entries != (session.window_from % kM == 0 ? 4u : 5u)) {
      failure = "archive window query returned the wrong entries";
    }
    out.record("ingest session " + std::to_string(u), failure);
    run.answer = "diverge=" + std::to_string(d.first_entry_mismatch) +
                 " framing=" + std::to_string(run.framing_errors) + "\n";
    for (const LogEntry& e : run.archived) {
      run.answer += e.tp.to_string() + ":" + std::to_string(e.k) + "\n";
    }
    return run;
  };

  std::vector<double> entry_ms;
  double wall = 0.0;  // pipeline only, without the checks
  double untraced_wall = 0.0, traced_wall = 0.0;
  std::size_t traced_sessions = 0, max_queue = 0, framing_errors = 0;
  const std::size_t n = run_units(
      args.seconds, trace, process,
      [&](std::size_t u, const SessionRun& run) {
        if (u == 0) {
          out.fingerprint = fingerprint(run.answer);
        }
        wall += run.wall;
        entry_ms.push_back(run.wall * 1e3 / static_cast<double>(kTraceCycles));
      },
      [&](std::size_t, const SessionRun& run) {
        ++traced_sessions;
        max_queue = std::max(max_queue, run.max_queue);
        framing_errors += run.framing_errors;
      },
      untraced_wall, traced_wall);

  const double entries = static_cast<double>(n * kTraceCycles);
  const Tail t = tail(entry_ms);
  out.info.set("workers", 2)
      .set("m", static_cast<std::uint64_t>(kM))
      .set("b", static_cast<std::uint64_t>(kB))
      .set("uart_divisor", static_cast<std::uint64_t>(divisor))
      .set("sessions", static_cast<std::uint64_t>(n))
      .set("trace_cycles_per_session", static_cast<std::uint64_t>(kTraceCycles))
      .set("ingest_cycles_per_s", entries * kM / wall)
      .set("entry_tail_percentile", t.percentile)
      .set("model_note", "simulated SoC/RTL figures are an unvalidated model");

  if (!args.trace) {
    out.end_to_end["setup_s"] = median(setup_s);
    out.end_to_end["entries_per_s"] = 1e3 / median(entry_ms);
    out.end_to_end["entry_p50_ms"] = median(entry_ms);
    out.end_to_end["entry_tail_ms"] = t.value;
    return out;
  }

  auto& pl = out.per_layer;
  pl["ingest.cycles_per_s"] = entries * kM / wall;
  const double cycles = static_cast<double>(traced_sessions * kCycles);
  const double traced_entries = static_cast<double>(traced_sessions * kTraceCycles);
  pl["soc.cycles_per_s"] = cycles / trace.total_seconds("soc.tick_hw");
  pl["soc.compare_logs_us"] = median(trace.durations("soc.compare_logs")) * 1e6;
  pl["rtlsim.agglog_cycles_per_s"] = cycles / trace.total_seconds("rtlsim.agglog_uart");
  pl["rtlsim.deserialize_us_per_entry"] = trace.total_seconds("rtlsim.deserialize") * 1e6 / traced_entries;
  pl["rtlsim.uart_max_queue_depth"] = static_cast<double>(max_queue);
  pl["rtlsim.framing_errors"] = static_cast<double>(framing_errors);
  pl["logger.cycles_per_s"] = cycles / trace.total_seconds("logger.tick_hw");
  pl["archive.append_us_per_entry"] = trace.total_seconds("archive.append") * 1e6 / traced_entries;
  pl["archive.window_query_us"] = median(trace.durations("archive.window_query")) * 1e6;
  pl["encoding.build_s"] = median(trace.durations("encoding.build"));
  add_trace_metrics(trace, untraced_wall, traced_wall, out);
  return out;
}

}  // namespace perfbench
