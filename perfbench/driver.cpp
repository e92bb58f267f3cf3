// End-to-end benchmark driver for libofmtl.
//
//   ofmtl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run generates its workload's inputs from the seed, then drives the
// real path on freshly set-up systems: pcap bytes -> trace::parse_batch ->
// runtime::ParallelRuntime (flow cache on) -> results checked against the
// ReferencePipeline oracle, with flow-mods arriving over loopback TCP
// through ofp::server::OfpServer.
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 measures the per-layer metrics: it replays the same batches
// layer by layer through each layer's public functions, with the driver's
// own spans around every call, and checks that the layers add up to the
// worker service time the runtime's trace records.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any packet or flow-mod failed.
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/flow_key.hpp"
#include "core/pipeline.hpp"
#include "heap_count.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/server.hpp"
#include "ofp/testing/fault_injection.hpp"
#include "runtime/flow_cache.hpp"
#include "runtime/runtime.hpp"
#include "trace/pcap.hpp"
#include "trace/wire_parse.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ofmtl;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 256;
constexpr std::size_t kCacheSlots = 8192;
constexpr std::size_t kQueueCapacity = 4;
/// In-flight batches per worker: three full queues, so a saturating closed
/// loop keeps every queue full and the producer meets backpressure.
constexpr std::size_t kSlotsPerWorker = 3 * kQueueCapacity;
/// Flow-mods per controller batch; each batch is fenced by a barrier.
constexpr std::size_t kModsPerBatch = 64;
/// An open-loop run is void when more than this percentage of its batches
/// started a whole batch interval late.
constexpr double kMaxLatePct = 1.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

// --- thread placement -------------------------------------------------------

/// Each thread of the system gets a CPU of its own, the same one on every
/// set-up. Left to the scheduler, throughput clustered by set-up (one set-up
/// ran every round near 4.4 Mpkt/s, the next near 7.5) because threads
/// shared or swapped CPUs differently each time. The producer, which is the
/// main thread, takes the first allowed CPU; the runtime's workers, the
/// server loop and the controller take the next ones in that order.
class Placement {
 public:
  Placement() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
  }

  /// Pins thread `tid` (0 = the calling thread) to the CPU of `slot`.
  void pin(pid_t tid, std::size_t slot) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[slot % cpus_.size()], &set);
    (void)sched_setaffinity(tid, sizeof set, &set);
  }

  /// Lets the calling thread run on every allowed CPU again.
  void unpin() const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus_) CPU_SET(cpu, &set);
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
};

const Placement& placement() {
  static const Placement instance;
  return instance;
}

constexpr std::size_t kProducerSlot = 0;
constexpr std::size_t kFirstWorkerSlot = 1;

/// The process's thread ids, ascending; empty when they cannot be listed.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  std::error_code error;
  for (std::filesystem::directory_iterator it("/proc/self/task", error), end;
       !error && it != end; it.increment(error)) {
    try {
      const std::string name = it->path().filename().string();
      ids.push_back(static_cast<pid_t>(std::stol(name)));
    } catch (const std::exception&) {
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Pins the threads that exist now but not in `before` (both ascending, so
/// in the order they were created) to consecutive slots from `slot`.
/// Returns the next free slot.
std::size_t pin_new_threads(const std::vector<pid_t>& before,
                            std::size_t slot) {
  std::vector<pid_t> created;
  const auto now = thread_ids();
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(created));
  for (const pid_t tid : created) placement().pin(tid, slot++);
  return slot;
}

// --- failures -------------------------------------------------------------

/// Everything a run attempted and everything that failed, by cause.
struct Tally {
  std::uint64_t packets = 0;     ///< packets handed to the system
  std::uint64_t malformed = 0;   ///< frames the wire parse rejected
  std::uint64_t errored = 0;     ///< packets of batches whose lookup threw
  std::uint64_t mismatches = 0;  ///< results that differ from the oracle
  std::uint64_t mods = 0;        ///< flow-mods sent
  std::uint64_t mods_failed = 0;  ///< ERROR replies, non-kNone sink results,
                                  ///< lost barriers, refused connects

  void add(const Tally& o) {
    packets += o.packets;
    malformed += o.malformed;
    errored += o.errored;
    mismatches += o.mismatches;
    mods += o.mods;
    mods_failed += o.mods_failed;
  }
  [[nodiscard]] std::uint64_t attempted() const { return packets + mods; }
  [[nodiscard]] std::uint64_t failed() const {
    return malformed + errored + mismatches + mods_failed;
  }
};

// --- the system under test ------------------------------------------------

/// Flow-mod batches land here (server loop thread): one left-right publish
/// per batch through ParallelRuntime::update, timed as the snapshot layer.
struct SinkLedger {
  std::mutex mutex;
  std::vector<double> publish_us;
  std::uint64_t failed = 0;  ///< mods whose result was not kNone

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex);
    publish_us.clear();
    failed = 0;
  }
};

/// One set-up of the system: the runtime with its compiled tables, the
/// ingested capture, and the control plane with one steady controller.
struct System {
  SinkLedger sink;
  std::unique_ptr<runtime::ParallelRuntime> rt;
  std::vector<trace::WireFrame> frames;
  std::unique_ptr<ofp::server::OfpServer> server;
  std::unique_ptr<ofp::testing::ScriptedController> controller;
  std::size_t controller_slot = 0;  ///< placement slot of a controller thread
  /// Packets the producer has submitted; paces a controller beside traffic.
  std::atomic<std::uint64_t> packets_submitted{0};

  ~System() {
    controller.reset();
    if (server) server->stop();
  }
};

struct SetupTimes {
  double compile_s = 0;
  double runtime_s = 0;
  double ingest_s = 0;
  double server_s = 0;
  [[nodiscard]] double total() const {
    return compile_s + runtime_s + ingest_s + server_s;
  }
};

/// Heap bytes by structure, measured on the last set-up.
struct HeapBytes {
  std::int64_t table = 0;   ///< one compiled MultiTableLookup
  std::int64_t ingest = 0;  ///< the ingested frame index
  std::int64_t server = 0;  ///< server, session and controller
  std::int64_t start = 0;   ///< live bytes before the compile
};

ofp::server::FlowModSink make_sink(System& system) {
  return [&system](std::span<const ofp::server::PendingFlowMod> mods,
                   std::span<ofp::ErrorCode> results) {
    const auto start = Clock::now();
    system.rt->update([mods, results](MultiTableLookup& tables) {
      ofp::server::apply_mods(tables, mods, results);
    });
    const double us = ns_between(start, Clock::now()) / 1e3;
    const auto failed = static_cast<std::uint64_t>(
        std::count_if(results.begin(), results.end(), [](ofp::ErrorCode code) {
          return code != ofp::ErrorCode::kNone;
        }));
    const std::lock_guard<std::mutex> lock(system.sink.mutex);
    system.sink.publish_us.push_back(us);
    system.sink.failed += failed;
  };
}

std::unique_ptr<System> set_up(const Workload& workload, const Inputs& in,
                               SetupTimes& times, HeapBytes* heap) {
  auto system = std::make_unique<System>();
  if (heap != nullptr) heap->start = live_heap_bytes();
  placement().pin(0, kProducerSlot);

  auto t0 = Clock::now();
  MultiTableLookup tables = MultiTableLookup::compile(in.app.reference);
  auto t1 = Clock::now();
  times.compile_s = seconds_between(t0, t1);
  if (heap != nullptr) heap->table = live_heap_bytes() - heap->start;

  const auto before_workers = thread_ids();
  system->rt = std::make_unique<runtime::ParallelRuntime>(
      std::move(tables),
      runtime::RuntimeConfig{.workers = workload.workers,
                             .queue_capacity = kQueueCapacity,
                             .flow_cache_capacity = kCacheSlots});
  auto t2 = Clock::now();
  times.runtime_s = seconds_between(t1, t2);
  const std::size_t server_slot =
      pin_new_threads(before_workers, kFirstWorkerSlot);

  const std::int64_t before_ingest = live_heap_bytes();
  bool truncated = false;
  {
    trace::PcapReader reader(std::span<const std::uint8_t>(in.capture));
    const auto records = reader.read_all();
    truncated = reader.truncated();
    system->frames.reserve(records.size());
    for (const auto& record : records) {
      system->frames.emplace_back(record.bytes, record.orig_len);
    }
  }
  auto t3 = Clock::now();
  times.ingest_s = seconds_between(t2, t3);
  if (heap != nullptr) heap->ingest = live_heap_bytes() - before_ingest;
  if (truncated || system->frames.size() != in.frame_flow.size()) {
    throw std::runtime_error("capture ingest lost frames");
  }

  const auto before_server_thread = thread_ids();
  const std::int64_t before_server = live_heap_bytes();
  ofp::server::ServerConfig config;
  config.session.echo_interval_ms = 0;  // the controller never idles
  system->server = std::make_unique<ofp::server::OfpServer>(make_sink(*system),
                                                            config);
  system->controller = std::make_unique<ofp::testing::ScriptedController>();
  const bool up = system->server->start() &&
                  system->controller->connect(system->server->port());
  auto t4 = Clock::now();
  times.server_s = seconds_between(t3, t4);
  if (heap != nullptr) heap->server = live_heap_bytes() - before_server;
  if (!up) throw std::runtime_error("control plane did not come up");
  system->controller_slot = pin_new_threads(before_server_thread, server_slot);
  return system;
}

// --- the traffic producer -------------------------------------------------

/// One in-flight batch: caller-owned headers and results plus its ticket.
struct Slot {
  std::vector<PacketHeader> headers;
  std::vector<ExecutionResult> results;
  std::vector<std::uint8_t> malformed;
  runtime::BatchTicket ticket;
  std::size_t first = 0;  ///< capture index of the batch's first frame
  Clock::time_point due{};
  Clock::time_point submitted{};
  bool busy = false;
};

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< due -> ticket complete, per batch
  std::vector<double> sojourn_us;  ///< submit -> ticket complete, per batch
  std::uint64_t batches = 0;
  std::uint64_t late = 0;  ///< batches submitted a whole interval late

  [[nodiscard]] double late_pct() const {
    return pct(static_cast<double>(late), static_cast<double>(batches));
  }
};

/// The single producer thread's side of the data plane: parses capture
/// frames into batches, submits them round-robin over the worker queues and
/// checks every completed result against the oracle.
class Producer {
 public:
  Producer(const Inputs& in, System& system, std::size_t workers)
      : in_(in),
        system_(system),
        workers_(workers),
        slot_count_(workers * kSlotsPerWorker),
        slots_(std::make_unique<Slot[]>(slot_count_)) {
    // Result vectors get the oracle's largest sizes up front, so results
    // rewritten in place never grow the driver's own heap later (the
    // runtime's bytes are measured as a live-heap delta).
    std::size_t ports = 0, entries = 0, tables = 0;
    for (const auto& result : in.expected) {
      ports = std::max(ports, result.output_ports.size());
      entries = std::max(entries, result.matched_entries.size());
      tables = std::max(tables, result.visited_tables.size());
    }
    for (std::size_t s = 0; s < slot_count_; ++s) {
      Slot& slot = slots_[s];
      slot.headers.resize(kBatch);
      slot.results.resize(kBatch);
      slot.malformed.resize(kBatch);
      for (auto& result : slot.results) {
        result.output_ports.reserve(ports);
        result.matched_entries.reserve(entries);
        result.visited_tables.reserve(tables);
      }
    }
    parse_ctx_.bad_lanes.reserve(kBatch);
  }

  /// Saturating closed loop for `window_s`: a slot is refilled as soon as
  /// its batch completes. Returns the checked-packet rate in Mpkt/s.
  double closed_loop(double window_s) {
    const auto start = Clock::now();
    const auto end = start + to_duration(window_s);
    const std::uint64_t before = tally.packets;
    auto now = start;
    for (std::size_t s = 0; now < end; s = (s + 1) % slot_count_) {
      Slot& slot = slots_[s];
      if (slot.busy) {
        while (!slot.ticket.done()) std::this_thread::yield();
        complete(slot);
      }
      submit(slot);
      now = Clock::now();
    }
    const double rate = static_cast<double>(tally.packets - before) /
                        seconds_between(start, now) / 1e6;
    drain();
    return rate;
  }

  /// Open loop at `mpps` for `window`: batch k is due at start + k * B/rate
  /// and is timed from its due time, so a stall delays every later batch's
  /// latency instead of hiding in a slower schedule. Appends to `out`.
  void open_loop(double window_s, double mpps, OpenLoopResult& out) {
    const double interval_ns = static_cast<double>(kBatch) / (mpps * 1e6) * 1e9;
    const auto interval = std::chrono::nanoseconds(
        static_cast<std::int64_t>(interval_ns));
    const auto batches = static_cast<std::uint64_t>(window_s * 1e9 / interval_ns);
    const auto start = Clock::now() + std::chrono::microseconds(100);
    std::size_t s = 0;
    for (std::uint64_t k = 0; k < batches; ++k) {
      const auto due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                   interval_ns * static_cast<double>(k)));
      while (Clock::now() < due) poll(out);
      Slot& slot = slots_[s];
      while (slot.busy) poll(out);
      if (Clock::now() - due > interval) out.late++;
      slot.due = due;
      submit(slot);
      out.batches++;
      s = (s + 1) % slot_count_;
    }
    bool pending = true;
    while (pending) {
      poll(out);
      pending = false;
      for (std::size_t i = 0; i < slot_count_; ++i) pending |= slots_[i].busy;
    }
  }

  /// Complete every in-flight batch.
  void drain() {
    for (std::size_t s = 0; s < slot_count_; ++s) {
      Slot& slot = slots_[s];
      if (!slot.busy) continue;
      while (!slot.ticket.done()) std::this_thread::yield();
      complete(slot);
    }
  }

  Tally tally;
  std::uint64_t backpressure_spins = 0;
  std::uint64_t submitted_batches = 0;

 private:
  // Batches never wrap: every capture is a whole number of batches.
  void submit(Slot& slot) {
    const std::size_t n = kBatch;
    slot.first = cursor_;
    cursor_ = (cursor_ + n) % system_.frames.size();
    const std::size_t valid = trace::parse_batch(
        {system_.frames.data() + slot.first, n}, in_.in_port,
        {slot.headers.data(), n}, parse_ctx_);
    std::fill(slot.malformed.begin(), slot.malformed.end(), 0);
    if (valid != n) {
      for (const auto lane : parse_ctx_.bad_lanes) slot.malformed[lane] = 1;
      tally.malformed += n - valid;
    }
    slot.busy = true;
    slot.submitted = Clock::now();
    backpressure_spins += system_.rt->submit(
        queue_++ % workers_, {slot.headers.data(), n}, {slot.results.data(), n},
        &slot.ticket);
    submitted_batches++;
    system_.packets_submitted.fetch_add(n, std::memory_order_relaxed);
  }

  void complete(Slot& slot) {
    slot.busy = false;
    tally.packets += kBatch;
    if (slot.ticket.failed()) {
      tally.errored += kBatch;
      slot.ticket.reset();
      return;
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (slot.malformed[i] != 0) continue;
      if (!(slot.results[i] == in_.expected[in_.frame_flow[slot.first + i]])) {
        tally.mismatches++;
      }
    }
  }

  void poll(OpenLoopResult& out) {
    for (std::size_t i = 0; i < slot_count_; ++i) {
      Slot& slot = slots_[i];
      if (!slot.busy || !slot.ticket.done()) continue;
      const auto now = Clock::now();
      out.latency_us.push_back(ns_between(slot.due, now) / 1e3);
      out.sojourn_us.push_back(ns_between(slot.submitted, now) / 1e3);
      complete(slot);
    }
  }

  const Inputs& in_;
  System& system_;
  std::size_t workers_;
  std::size_t slot_count_;
  std::unique_ptr<Slot[]> slots_;
  trace::ParseContext parse_ctx_;
  std::size_t cursor_ = 0;
  std::size_t queue_ = 0;
};

// --- the controller -------------------------------------------------------

struct ControlResult {
  std::vector<double> rtt_us;  ///< flow-mod batch sent -> barrier reply
  /// Per fenced batch: seconds from the loop's start to its barrier reply,
  /// and the mods it applied.
  std::vector<std::pair<double, std::uint64_t>> fenced;
  double elapsed_s = 0;

  /// Mods applied per second in each of `windows` equal slices of the loop.
  [[nodiscard]] std::vector<double> window_rates(std::size_t windows) const {
    std::vector<double> applied(windows, 0.0);
    if (elapsed_s <= 0 || windows == 0) return applied;
    const double width = elapsed_s / static_cast<double>(windows);
    for (const auto& [at, mods] : fenced) {
      const auto w = std::min(windows - 1, static_cast<std::size_t>(at / width));
      applied[w] += static_cast<double>(mods);
    }
    for (auto& count : applied) count /= width;
    return applied;
  }
};

/// Loop of flow-mod batches on one connection: add the churn entries in
/// batches, each fenced by an echo barrier, then delete them the same way,
/// until `stop` is set or `deadline` passes. Stops only between a delete
/// round and the next add round, so the table always returns to its initial
/// state. With `packets_per_batch` > 0 a batch waits until the producer has
/// submitted that many packets since the previous batch was sent (never
/// sending in a burst to catch up, and no longer waiting once `stop` is
/// set); with 0 the next batch follows the previous barrier reply at once.
ControlResult run_controller(const Inputs& in, System& system, Tally& tally,
                             const std::atomic<bool>& stop,
                             Clock::time_point deadline,
                             std::uint64_t packets_per_batch) {
  ControlResult out;
  auto& controller = *system.controller;
  const auto start = Clock::now();
  std::uint64_t next_send =
      system.packets_submitted.load(std::memory_order_relaxed);
  bool connected = true;
  while (connected && !stop.load(std::memory_order_relaxed) &&
         Clock::now() < deadline) {
    for (const auto command : {FlowModCommand::kAdd, FlowModCommand::kDelete}) {
      for (std::size_t base = 0; connected && base < in.churn_entries.size();
           base += kModsPerBatch) {
        const std::size_t n =
            std::min(kModsPerBatch, in.churn_entries.size() - base);
        while (system.packets_submitted.load(std::memory_order_relaxed) <
                   next_send &&
               !stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        next_send = std::max(
            next_send + packets_per_batch,
            system.packets_submitted.load(std::memory_order_relaxed));
        const auto sent = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
          ofp::FlowModMsg mod;
          mod.command = command;
          mod.table_id = static_cast<std::uint8_t>(in.churn_table);
          mod.entry = in.churn_entries[base + i];
          connected &= controller.send(ofp::encode({controller.next_xid(), mod}));
        }
        const auto barrier =
            connected ? controller.barrier() : ofp::testing::BarrierResult{};
        tally.mods += n;
        if (!barrier.ok) {
          tally.mods_failed += n;
          connected = false;
          break;
        }
        const auto errors = std::min<std::uint64_t>(barrier.errors_seen, n);
        tally.mods_failed += errors;
        const auto fenced = Clock::now();
        out.rtt_us.push_back(ns_between(sent, fenced) / 1e3);
        out.fenced.emplace_back(seconds_between(start, fenced), n - errors);
      }
    }
  }
  out.elapsed_s = seconds_between(start, Clock::now());
  return out;
}

/// Runs the controller loop beside the traffic until stop() is called.
class ControllerThread {
 public:
  ControllerThread(const Inputs& in, System& system,
                   std::uint64_t packets_per_batch)
      : thread_([this, &in, &system, packets_per_batch] {
          placement().pin(0, system.controller_slot);
          try {
            result_ = run_controller(in, system, tally_, stop_,
                                     Clock::time_point::max(),
                                     packets_per_batch);
          } catch (const std::exception&) {
            tally_.mods++;
            tally_.mods_failed++;
          }
        }) {}
  ~ControllerThread() { stop(); }
  ControllerThread(const ControllerThread&) = delete;
  ControllerThread& operator=(const ControllerThread&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] const ControlResult& result() const { return result_; }
  [[nodiscard]] const Tally& tally() const { return tally_; }

 private:
  std::atomic<bool> stop_{false};
  ControlResult result_;
  Tally tally_;
  std::thread thread_;
};

/// The flow-mod phase of a run: beside the traffic on churn workloads
/// (start() before the traffic, finish() after it), otherwise on the main
/// thread for `seconds` once the traffic has stopped.
class ControlPhase {
 public:
  ControlPhase(const Workload& workload, const Inputs& in, System& system)
      : workload_(workload), in_(in), system_(system) {}

  void start() {
    system_.sink.reset();
    if (workload_.churn_packets_per_batch > 0) {
      thread_ = std::make_unique<ControllerThread>(
          in_, system_, workload_.churn_packets_per_batch);
    }
  }

  void finish(double seconds, Tally& tally) {
    Tally control;
    if (thread_) {
      thread_->stop();
      result = thread_->result();
      control = thread_->tally();
      thread_.reset();
    } else {
      const std::atomic<bool> never{false};
      result = run_controller(
          in_, system_, control, never,
          Clock::now() + to_duration(seconds), 0);
    }
    tally.mods += control.mods;
    tally.mods_failed += control.mods_failed;
    // A non-kNone sink result also comes back as an ERROR reply the
    // controller counted; count whichever side saw more, never both.
    const auto stats = system_.server->stats();
    const std::lock_guard<std::mutex> lock(system_.sink.mutex);
    const std::uint64_t server_side = system_.sink.failed + stats.flow_mods_shed;
    if (server_side > control.mods_failed) {
      tally.mods_failed += server_side - control.mods_failed;
    }
    publish_us = system_.sink.publish_us;
  }

  ControlResult result;
  std::vector<double> publish_us;  ///< one per left-right publish

 private:
  const Workload& workload_;
  const Inputs& in_;
  System& system_;
  std::unique_ptr<ControllerThread> thread_;
};

/// After the writer quiesced: every distinct flow, classified once more on
/// the final table state, must still match the oracle.
void check_final_state(const Inputs& in, System& system, Tally& tally) {
  std::vector<ExecutionResult> results(kBatch);
  for (std::size_t base = 0; base < in.flows.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, in.flows.size() - base);
    tally.packets += n;
    try {
      system.rt->classify(0, {in.flows.data() + base, n}, {results.data(), n});
    } catch (const std::exception&) {
      tally.errored += n;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!(results[i] == in.expected[base + i])) tally.mismatches++;
    }
  }
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int report(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const auto& metric : metrics) {
    std::cout << "  " << metric.name << " = " << format_number(metric.value)
              << " " << metric.unit << "\n";
  }
  std::cout << "  packets=" << tally.packets << " malformed=" << tally.malformed
            << " errored=" << tally.errored
            << " mismatches=" << tally.mismatches << " mods=" << tally.mods
            << " mods_failed=" << tally.mods_failed << "\n";
  const bool correct = tally.failed() == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(tally.attempted(), 1)
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json << ", ";
    json << "\"" << metrics[i].name << "\": {\"value\": "
         << format_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  if (!correct) {
    std::cerr << "error: " << tally.failed() << " of " << tally.attempted()
              << " packets and flow-mods failed\n";
  }
  return correct ? 0 : 1;
}

double failed_pct(const Tally& tally) {
  return pct(static_cast<double>(tally.failed()),
             static_cast<double>(tally.attempted()));
}

void print_open_loop(const Workload& workload, const OpenLoopResult& open) {
  std::cout << workload.name << ": open loop at " << workload.offered_mpps
            << " Mpkt/s, " << open.batches << " batches, generator late on "
            << format_number(open.late_pct()) << "% of them\n";
  if (open.late_pct() > kMaxLatePct) {
    std::cout << "VOID: the generator fell behind its schedule on "
              << format_number(open.late_pct()) << "% of batches (limit "
              << kMaxLatePct << "%); latency figures do not describe the "
              << "offered rate\n";
  }
}

// --- host speed -------------------------------------------------------------

/// The speed the shared host gives the benchmark at one moment, read from a
/// fixed kernel that does not use libofmtl: independent random 8-byte reads
/// over a 4 MiB table, twice a core's L2, so they are served by the shared
/// last-level cache whose load from other tenants comes and goes. On the
/// reference machine the end-to-end figures of one binary on one seed moved
/// by up to a third between runs minutes apart and moved with this kernel's
/// speed, while a compute-bound kernel and one whose table fits in L2 moved
/// far less. The time metrics are therefore reported at a fixed reference
/// speed of this kernel; the raw figures are printed too.
class HostProbe {
 public:
  HostProbe() : table_(kTableBytes / sizeof(std::uint64_t)) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i * kMix;
  }

  /// Reads per microsecond on the calling thread's CPU over `seconds`.
  double measure(double seconds) {
    const std::size_t mask = table_.size() - 1;
    const auto start = Clock::now();
    const auto end = start + to_duration(seconds);
    std::uint64_t reads = 0;
    std::uint64_t sum = 0;
    auto now = start;
    while (now < end) {
      for (std::size_t k = 0; k < kReadsPerCheck; ++k) {
        key_ = (key_ + 1) * kMix;
        sum += table_[(key_ >> 20) & mask];
      }
      reads += kReadsPerCheck;
      now = Clock::now();
    }
    checksum_.fetch_add(sum, std::memory_order_relaxed);  // keeps the reads
    return static_cast<double>(reads) / (ns_between(start, now) / 1e3);
  }

 private:
  static constexpr std::size_t kTableBytes = std::size_t{4} << 20;
  static constexpr std::size_t kReadsPerCheck = 1024;
  static constexpr std::uint64_t kMix = 0x9E3779B97F4A7C15ull;

  std::vector<std::uint64_t> table_;
  std::uint64_t key_ = 0;
  std::atomic<std::uint64_t> checksum_{0};
};

/// The probe's speed (reads/us) the time metrics are reported at, a round
/// figure within the range of its per-run medians on the reference machine
/// (285 to 350 reads/us).
constexpr double kReferenceReadsPerUs = 340.0;
/// Probe time per CPU per sample.
constexpr double kProbeSeconds = 0.02;

/// Host speed now: the probe's mean over every CPU the data plane runs on
/// (the producer's and each worker's). The calling thread, which is the
/// producer, visits each of those CPUs in turn and returns to its own; an
/// idle worker only yields on its CPU meanwhile.
double sample_host_speed(HostProbe& probe, const Workload& workload) {
  double sum = 0;
  for (std::size_t slot = kProducerSlot;
       slot < kFirstWorkerSlot + workload.workers; ++slot) {
    placement().pin(0, slot);
    sum += probe.measure(kProbeSeconds);
  }
  placement().pin(0, kProducerSlot);
  return sum / static_cast<double>(kFirstWorkerSlot + workload.workers);
}

// --- end-to-end run (--trace 0) --------------------------------------------

/// Traffic runs on kSystems fresh set-ups in turn, each for rounds of about
/// kRoundSeconds of closed loop then open loop. Rounds sample the whole run
/// rather than one stretch of it, and each set-up places the runtime's and
/// the producer's buffers anew, so no figure hangs on one placement.
constexpr std::size_t kSystems = 5;
/// Timed set-ups per system; all but the last are torn down at once.
constexpr std::size_t kSetupsPerSystem = 3;
constexpr double kRoundSeconds = 1.0;

/// A figure at the reference host speed: rates scale with host speed,
/// times against it.
double rate_at_reference(double rate, double speed) {
  return rate * kReferenceReadsPerUs / speed;
}
double time_at_reference(double time, double speed) {
  return time * speed / kReferenceReadsPerUs;
}

int run_end_to_end(const Workload& workload, const Inputs& in, double seconds) {
  const double system_s = seconds / kSystems;
  const auto rounds_per_system = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(0.85 * system_s / kRoundSeconds)));
  const double round_s =
      0.85 * system_s / static_cast<double>(rounds_per_system);
  HostProbe probe;
  // Per set-up and per round: the raw figure and the one at reference speed.
  std::vector<double> raw_setup_s, setup_s;
  std::vector<double> raw_rates, rates;
  std::vector<double> raw_p50_us, p50_us;
  std::vector<double> speeds;  ///< host speed at every sample
  std::size_t flow_mod_batches = 0;
  OpenLoopResult open;
  Tally tally;
  HeapBytes heap;
  std::int64_t runtime_bytes = 0;
  SetupTimes times;
  for (std::size_t i = 0; i < kSystems; ++i) {
    const bool first = i == 0;
    std::unique_ptr<System> system;
    for (std::size_t k = 0; k < kSetupsPerSystem; ++k) {
      const bool kept = k + 1 == kSetupsPerSystem;
      system.reset();
      speeds.push_back(sample_host_speed(probe, workload));
      system = set_up(workload, in, times, first && kept ? &heap : nullptr);
      raw_setup_s.push_back(times.total());
      setup_s.push_back(time_at_reference(times.total(), speeds.back()));
    }

    // The producer's buffers are counted apart from the runtime's bytes,
    // which are read once warm-up has run flows through every worker's cache.
    const std::int64_t before_producer = live_heap_bytes();
    Producer producer(in, *system, workload.workers);
    const std::int64_t producer_bytes = live_heap_bytes() - before_producer;
    producer.closed_loop(std::min(0.25, 0.05 * system_s));
    if (first) {
      runtime_bytes = live_heap_bytes() - heap.start - heap.ingest -
                      heap.server - producer_bytes;
    }

    // Each round's host speed is the mean of the samples on either side.
    ControlPhase control(workload, in, *system);
    control.start();
    speeds.push_back(sample_host_speed(probe, workload));
    for (std::size_t round = 0; round < rounds_per_system; ++round) {
      const double rate = producer.closed_loop(0.45 * round_s);
      const std::size_t from = open.latency_us.size();
      producer.open_loop(0.55 * round_s, workload.offered_mpps, open);
      const double p50 = quantile(
          {open.latency_us.begin() + static_cast<std::ptrdiff_t>(from),
           open.latency_us.end()},
          0.50);
      const double before = speeds.back();
      speeds.push_back(sample_host_speed(probe, workload));
      const double speed = (before + speeds.back()) / 2.0;
      raw_rates.push_back(rate);
      rates.push_back(rate_at_reference(rate, speed));
      raw_p50_us.push_back(p50);
      p50_us.push_back(time_at_reference(p50, speed));
    }
    tally.add(producer.tally);
    // Flow-mods run only beside the traffic here; the traced run measures
    // them on every workload.
    control.finish(0.0, tally);
    check_final_state(in, *system, tally);
    flow_mod_batches += control.result.rtt_us.size();
  }
  const auto print_series = [](const char* what,
                                const std::vector<double>& values) {
    std::cerr << what << ":";
    for (const double value : values) std::cerr << " " << value;
    std::cerr << "\n";
  };
  print_series("closed-loop rate per round (Mpkt/s)", raw_rates);
  print_series("open-loop p50 per round (us)", raw_p50_us);
  print_series("host speed per sample (reads/us)", speeds);
  print_open_loop(workload, open);

  std::vector<Metric> metrics = {
      {"classify_mpps", median(rates), "Mpkt/s"},
      {"latency_p50_us", median(p50_us), "us"},
      {"table_bytes", static_cast<double>(heap.table), "B"},
      {"runtime_bytes", static_cast<double>(runtime_bytes), "B"},
      {"setup_s", median(setup_s), "s"},
      {"ok_pct", 100.0 - failed_pct(tally), "%"},
  };
  std::cout << "  samples: " << rates.size() << " closed-loop windows, "
            << open.latency_us.size() << " open-loop batches, "
            << flow_mod_batches << " flow-mod batches, " << setup_s.size()
            << " set-ups; failed_pct = " << format_number(failed_pct(tally))
            << " %\n  raw (at the host's own speed, median "
            << format_number(median(speeds)) << " reads/us against "
            << kReferenceReadsPerUs << "): classify_mpps "
            << format_number(median(raw_rates)) << ", latency_p50_us "
            << format_number(median(raw_p50_us)) << ", setup_s "
            << format_number(median(raw_setup_s))
            << "\n  last set-up: compile " << times.compile_s
            << " s, runtime start " << times.runtime_s << " s, ingest "
            << times.ingest_s << " s, server + HELLO " << times.server_s << " s\n";
  return report(tally, metrics);
}

// --- per-layer run (--trace 1) -----------------------------------------------

/// The driver's own spans, summed per layer (ns) over the measured batches
/// of the layered replay, with the work counts taken at the same calls.
struct LayerTimes {
  double parse = 0;         ///< trace::parse_batch
  double hash = 0;          ///< flow_key_hash over the batch
  double probe = 0;         ///< FlowCache::find + hit copy + miss gather
  double fill = 0;          ///< miss merge + FlowCache::store
  double execute = 0;       ///< execute_tables_batch over the misses
  double lookup_batch = 0;  ///< LookupTable::lookup_batch, summed
  double em = 0;            ///< FieldSearch::search_batch, exact-match fields
  double lpm = 0;           ///< ... prefix (multibit trie) fields
  double range = 0;         ///< ... range fields
  double index = 0;         ///< IndexCalculator::query_batch
  double replay = 0;        ///< the driver's replay of lookup_batch's parts
  std::uint64_t packets = 0;
  std::uint64_t malformed = 0;
  std::uint64_t labels = 0;
  std::uint64_t matches = 0;

  void add(const LayerTimes& o) {
    parse += o.parse;
    hash += o.hash;
    probe += o.probe;
    fill += o.fill;
    execute += o.execute;
    lookup_batch += o.lookup_batch;
    em += o.em;
    lpm += o.lpm;
    range += o.range;
    index += o.index;
    replay += o.replay;
    packets += o.packets;
    malformed += o.malformed;
    labels += o.labels;
    matches += o.matches;
  }
  // Self times: a span minus the spans of the layers it calls.
  [[nodiscard]] double search() const { return em + lpm + range; }
  [[nodiscard]] double select() const {
    return lookup_batch - search() - index;
  }
  [[nodiscard]] double walk() const { return execute - lookup_batch - replay; }
  /// Everything a worker does per batch, as the sum of its layers.
  [[nodiscard]] double worker_sum() const {
    return hash + probe + fill + search() + index + select() + walk();
  }
};

/// The pipeline's table source, wrapped so the driver can time each
/// lookup_batch call and, beside it, replay the call's parts (every field
/// search, then the index calculation) through their public functions on
/// a second context. Which of the two runs first alternates per call, so
/// neither gets the other's warm caches every time.
class TimedSource final : public TableLookupSource {
 public:
  TimedSource(const MultiTableLookup& tables, LayerTimes& times)
      : tables_(tables), times_(times) {}

  [[nodiscard]] std::size_t source_table_count() const override {
    return tables_.source_table_count();
  }
  [[nodiscard]] const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const override {
    return tables_.source_lookup(table, header);
  }
  [[nodiscard]] const GroupTable* source_groups() const override {
    return tables_.source_groups();
  }
  void source_lookup_batch(std::size_t table,
                           std::span<const PacketHeader* const> headers,
                           std::span<const FlowEntry*> out) const override {
    const LookupTable& lookup = tables_.table(table);
    const bool parts_first = calls_++ % 2 == 0;
    if (parts_first) replay_parts(lookup, headers);
    const auto start = Clock::now();
    lookup.lookup_batch(headers, out, ctx_);
    times_.lookup_batch += ns_between(start, Clock::now());
    if (!parts_first) replay_parts(lookup, headers);
  }

 private:
  void replay_parts(const LookupTable& lookup,
                    std::span<const PacketHeader* const> headers) const {
    const auto start = Clock::now();
    parts_.begin(headers.size(), lookup.index().algorithm_count());
    std::size_t slot_base = 0;
    for (const FieldSearch& search : lookup.field_searches()) {
      const auto t0 = Clock::now();
      search.search_batch(headers, parts_, slot_base);
      const double ns = ns_between(t0, Clock::now());
      switch (search.method()) {
        case MatchMethod::kExact: times_.em += ns; break;
        case MatchMethod::kLongestPrefix: times_.lpm += ns; break;
        default: times_.range += ns; break;
      }
      slot_base += search.algorithm_count();
    }
    for (std::size_t lane = 0; lane < headers.size(); ++lane) {
      for (const auto& slot : parts_.packet_candidates(lane)) {
        times_.labels += slot.size();
      }
    }
    const auto t1 = Clock::now();
    lookup.index().query_batch(parts_);
    times_.index += ns_between(t1, Clock::now());
    for (std::size_t lane = 0; lane < headers.size(); ++lane) {
      times_.matches += parts_.lane_matches(lane).size();
    }
    times_.replay += ns_between(start, Clock::now());
  }

  const MultiTableLookup& tables_;
  LayerTimes& times_;
  mutable SearchContext ctx_;
  mutable SearchContext parts_;
  mutable std::uint64_t calls_ = 0;
};

/// One replay worker: the batches a runtime worker would get (every
/// `stride`-th batch of the capture from `first`), walked layer by layer
/// the way ParallelRuntime drains a batch with its flow cache on. The epoch
/// advances every `batches_per_publish` batches (0 = never), as flow-mods
/// would advance it.
LayerTimes replay_worker(const Inputs& in,
                         const std::vector<trace::WireFrame>& frames,
                         const MultiTableLookup& tables, std::size_t first,
                         std::size_t stride, double batches_per_publish,
                         double window_s, Tally& tally) {
  LayerTimes times;
  TimedSource source(tables, times);
  runtime::FlowCache cache(kCacheSlots);
  trace::ParseContext parse_ctx;
  ExecBatchContext exec_ctx;
  std::vector<PacketHeader> headers(kBatch);
  std::vector<std::uint64_t> hashes(kBatch);
  std::vector<ExecutionResult> results(kBatch);
  std::vector<std::uint32_t> miss_lanes;
  std::vector<std::uint64_t> miss_hashes;
  std::vector<PacketHeader> miss_headers;
  std::vector<ExecutionResult> miss_results(kBatch);
  miss_lanes.reserve(kBatch);
  miss_hashes.reserve(kBatch);
  miss_headers.reserve(kBatch);

  const std::size_t capture_batches = frames.size() / kBatch;
  // Warm-up: enough batches to fill the cache, not timed.
  const std::size_t warm_batches = std::min<std::size_t>(
      capture_batches / stride, 2 * kCacheSlots / kBatch);
  std::uint64_t epoch = 1;
  double since_publish = 0;
  Clock::time_point end{};
  for (std::size_t seq = 0;; ++seq) {
    if (seq == warm_batches) {
      times = LayerTimes{};
      end = Clock::now() + to_duration(window_s);
    }
    if (seq > warm_batches && Clock::now() >= end) break;
    const std::size_t batch = (first + seq * stride) % capture_batches;
    const std::size_t base = batch * kBatch;
    if (batches_per_publish > 0 && ++since_publish >= batches_per_publish) {
      since_publish -= batches_per_publish;
      epoch++;
    }

    const auto t0 = Clock::now();
    const std::size_t valid = trace::parse_batch(
        {frames.data() + base, kBatch}, in.in_port, {headers.data(), kBatch},
        parse_ctx);
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      hashes[i] = flow_key_hash(headers[i]);
    }
    const auto t2 = Clock::now();
    miss_lanes.clear();
    miss_hashes.clear();
    miss_headers.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (const ExecutionResult* hit = cache.find(headers[i], hashes[i], epoch)) {
        results[i] = *hit;
      } else {
        miss_lanes.push_back(static_cast<std::uint32_t>(i));
        miss_hashes.push_back(hashes[i]);
        miss_headers.push_back(headers[i]);
      }
    }
    const auto t3 = Clock::now();
    const std::size_t misses = miss_lanes.size();
    if (misses != 0) {
      execute_tables_batch(source, {miss_headers.data(), misses},
                           {miss_results.data(), misses}, exec_ctx);
    }
    const auto t4 = Clock::now();
    for (std::size_t j = 0; j < misses; ++j) {
      results[miss_lanes[j]] = miss_results[j];
      cache.store(miss_headers[j], miss_hashes[j], epoch, miss_results[j]);
    }
    const auto t5 = Clock::now();

    times.parse += ns_between(t0, t1);
    times.hash += ns_between(t1, t2);
    times.probe += ns_between(t2, t3);
    times.execute += ns_between(t3, t4);
    times.fill += ns_between(t4, t5);
    times.packets += kBatch;
    times.malformed += kBatch - valid;

    tally.packets += kBatch;
    tally.malformed += kBatch - valid;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (!(results[i] == in.expected[in.frame_flow[base + i]])) {
        tally.mismatches++;
      }
    }
  }
  return times;
}

/// Worker service time as the runtime's own batch trace records it.
struct Service {
  double ns = 0;
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;

  void add(const obs::TraceDump& dump) {
    for (const auto& thread : dump.threads) {
      if (thread.name.rfind("worker", 0) != 0) continue;
      std::uint64_t begin = 0;
      bool open = false;
      for (const auto& event : obs::decode_thread(thread)) {
        if (event.event == obs::TraceEvent::kBatchBegin) {
          begin = event.ts_ns;
          open = true;
        } else if (event.event == obs::TraceEvent::kBatchEnd && open) {
          ns += static_cast<double>(event.ts_ns - begin);
          packets += event.payload;
          batches++;
          open = false;
        }
      }
    }
  }
  [[nodiscard]] double ns_per_packet() const {
    return packets > 0 ? ns / static_cast<double>(packets) : 0.0;
  }
  [[nodiscard]] double us_per_batch() const {
    return batches > 0 ? ns / static_cast<double>(batches) / 1e3 : 0.0;
  }
};

/// Heap bytes and model bits per structure: each FieldSearch and a warm
/// FlowCache are built on their own so their bytes can be read apart.
struct MemorySplit {
  double model_bits = 0;
  double field_search_bytes = 0;
  double flow_cache_bytes = 0;
};

MemorySplit measure_memory(const Inputs& in) {
  MemorySplit split;
  const MultiTableLookup tables = MultiTableLookup::compile(in.app.reference);
  split.model_bits =
      static_cast<double>(tables.memory_report("tables").total_bits());
  for (std::size_t t = 0; t < tables.table_count(); ++t) {
    const LookupTable& table = tables.table(t);
    const auto entries = table.entries();
    for (const FieldId field : table.fields()) {
      const std::int64_t before = live_heap_bytes();
      auto search = std::make_unique<FieldSearch>(field);
      for (const auto& entry : entries) {
        (void)search->add_rule(entry.match.get(field));
      }
      search->seal();
      split.field_search_bytes +=
          static_cast<double>(live_heap_bytes() - before);
    }
  }
  const std::int64_t before = live_heap_bytes();
  auto cache = std::make_unique<runtime::FlowCache>(kCacheSlots);
  for (std::size_t f = 0; f < in.flows.size() && f < kCacheSlots; ++f) {
    cache->store(in.flows[f], flow_key_hash(in.flows[f]), 1, in.expected[f]);
  }
  split.flow_cache_bytes = static_cast<double>(live_heap_bytes() - before);
  return split;
}

/// Equal slices of the flow-mod loop whose median rate is flowmod_per_s.
constexpr std::size_t kFlowModWindows = 10;

int run_layered(const Workload& workload, const Inputs& in, double seconds) {
  SetupTimes times;
  HeapBytes heap;
  auto system = set_up(workload, in, times, &heap);
  const MemorySplit memory = measure_memory(in);
  Producer producer(in, *system, workload.workers);
  producer.closed_loop(std::min(0.5, 0.05 * seconds));
  HostProbe probe;
  std::vector<double> speeds = {sample_host_speed(probe, workload)};

  // Paired windows: untraced, then traced with the runtime's batch trace on
  // (order alternating per pair). The traced windows give the worker
  // service time, the pairs the cost of tracing.
  constexpr std::size_t kPairs = 5;
  const double pair_window_s = 0.4 * seconds / (2 * kPairs);
  obs::TraceOptions trace_options;
  trace_options.ring_capacity = std::size_t{1} << 18;
  ControlPhase control(workload, in, *system);
  control.start();
  const auto stats_before = system->rt->aggregate_stats();
  const std::uint64_t spins_before = producer.backpressure_spins;
  const std::uint64_t submitted_before = producer.submitted_batches;
  Service service;
  std::vector<double> overhead_pct;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double untraced = 0, traced = 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool trace_on = (leg == 0) == (pair % 2 == 1);
      if (trace_on) obs::start_tracing(trace_options);
      const double rate = producer.closed_loop(pair_window_s);
      if (trace_on) {
        obs::stop_tracing();
        service.add(obs::collect_tracing());
        traced = rate;
      } else {
        untraced = rate;
      }
    }
    overhead_pct.push_back(pct(untraced - traced, untraced));
  }
  const auto stats_closed = system->rt->aggregate_stats();
  const double spins_per_batch =
      static_cast<double>(producer.backpressure_spins - spins_before) /
      static_cast<double>(producer.submitted_batches - submitted_before);

  // Open loop with the batch trace on: queue wait is the time a batch spends
  // between submit and completion beyond its service time.
  OpenLoopResult open;
  Service open_service;
  obs::start_tracing(trace_options);
  producer.open_loop(0.15 * seconds, workload.offered_mpps, open);
  obs::stop_tracing();
  open_service.add(obs::collect_tracing());
  Tally tally = producer.tally;
  control.finish(0.1 * seconds, tally);
  const auto stats_after = system->rt->aggregate_stats();
  print_open_loop(workload, open);

  speeds.push_back(sample_host_speed(probe, workload));

  // Layered replay on as many threads as the runtime has workers, each
  // taking the batches a worker would take.
  const double publishes = static_cast<double>(control.publish_us.size());
  const double batches_per_publish =
      workload.churn_packets_per_batch > 0 && publishes > 0
          ? static_cast<double>(stats_after.batches - stats_before.batches) /
                static_cast<double>(workload.workers) / publishes
          : 0.0;
  const MultiTableLookup replay_tables =
      MultiTableLookup::compile(in.app.reference);
  std::vector<LayerTimes> layer_parts(workload.workers);
  std::vector<Tally> replay_tallies(workload.workers);
  {
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workload.workers; ++w) {
      threads.emplace_back([&, w] {
        placement().unpin();
        layer_parts[w] = replay_worker(in, system->frames, replay_tables, w,
                                       workload.workers, batches_per_publish,
                                       0.3 * seconds, replay_tallies[w]);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  LayerTimes layers;
  for (std::size_t w = 0; w < workload.workers; ++w) {
    layers.add(layer_parts[w]);
    tally.packets += replay_tallies[w].packets;
    tally.malformed += replay_tallies[w].malformed;
    tally.mismatches += replay_tallies[w].mismatches;
  }
  check_final_state(in, *system, tally);

  const auto per_packet = [&layers](double ns) {
    return layers.packets > 0 ? ns / static_cast<double>(layers.packets) : 0.0;
  };
  const double service_ns = service.ns_per_packet();
  const std::uint64_t hits = stats_closed.cache_hits - stats_before.cache_hits;
  const std::uint64_t misses =
      stats_closed.cache_misses - stats_before.cache_misses;
  const std::uint64_t batches = stats_closed.batches - stats_before.batches;
  const auto server = system->server->stats();
  const double rtt_total =
      std::accumulate(control.result.rtt_us.begin(),
                      control.result.rtt_us.end(), 0.0);
  const double publish_total = std::accumulate(
      control.publish_us.begin(), control.publish_us.end(), 0.0);
  const double rtt_batches =
      static_cast<double>(std::max<std::size_t>(control.result.rtt_us.size(), 1));
  const double table_bytes = static_cast<double>(heap.table);

  std::vector<Metric> metrics = {
      {"trace.parse_ns", per_packet(layers.parse), "ns"},
      {"trace.malformed", static_cast<double>(layers.malformed), "count"},
      {"flow_key.hash_ns", per_packet(layers.hash), "ns"},
      {"flow_cache.probe_ns", per_packet(layers.probe), "ns"},
      {"flow_cache.fill_ns", per_packet(layers.fill), "ns"},
      {"flow_cache.hit_pct",
       pct(static_cast<double>(hits), static_cast<double>(hits + misses)), "%"},
      {"flow_cache.epoch_invalidations",
       static_cast<double>(stats_closed.cache_epoch_invalidations -
                           stats_before.cache_epoch_invalidations),
       "count"},
      {"flow_cache.evictions",
       static_cast<double>(stats_closed.cache_evictions -
                           stats_before.cache_evictions),
       "count"},
      {"field_search.em_ns", per_packet(layers.em), "ns"},
      {"field_search.lpm_ns", per_packet(layers.lpm), "ns"},
      {"field_search.range_ns", per_packet(layers.range), "ns"},
      {"field_search.labels_per_pkt",
       per_packet(static_cast<double>(layers.labels)), "labels/pkt"},
      {"index.query_ns", per_packet(layers.index), "ns"},
      {"index.matches_per_pkt",
       per_packet(static_cast<double>(layers.matches)), "matches/pkt"},
      {"lookup_table.select_ns", per_packet(layers.select()), "ns"},
      {"pipeline.walk_ns", per_packet(layers.walk()), "ns"},
      {"latency_p99_us", quantile(open.latency_us, 0.99), "us"},
      {"flowmod_per_s", median(control.result.window_rates(kFlowModWindows)),
       "mods/s"},
      {"flowmod_rtt_p50_us", quantile(control.result.rtt_us, 0.50), "us"},
      {"flowmod_rtt_p99_us", quantile(control.result.rtt_us, 0.99), "us"},
      {"runtime.service_ns", service_ns, "ns"},
      {"runtime.queue_wait_us",
       mean(open.sojourn_us) - open_service.us_per_batch(), "us"},
      {"runtime.backpressure_spins", spins_per_batch, "spins/batch"},
      {"runtime.steals",
       pct(static_cast<double>(stats_closed.steals - stats_before.steals),
           static_cast<double>(batches)),
       "%"},
      {"snapshot.publish_us", mean(control.publish_us), "us"},
      {"snapshot.publishes", publishes, "count"},
      {"ofp.rtt_minus_publish_us", (rtt_total - publish_total) / rtt_batches,
       "us"},
      {"ofp.flow_mods_failed", static_cast<double>(server.flow_mods_failed),
       "count"},
      {"ofp.flow_mods_shed", static_cast<double>(server.flow_mods_shed),
       "count"},
      {"mem.model_bits", memory.model_bits, "bit"},
      {"mem.field_search_bytes", memory.field_search_bytes, "B"},
      {"mem.index_action_bytes", table_bytes - memory.field_search_bytes, "B"},
      {"mem.flow_cache_bytes", memory.flow_cache_bytes, "B"},
      {"mem.heap_per_model_bit",
       memory.model_bits > 0 ? table_bytes / memory.model_bits : 0.0, "B/bit"},
      {"ledger.residual_pct",
       pct(std::abs(per_packet(layers.worker_sum()) - service_ns), service_ns),
       "%"},
      {"bench.trace_overhead_pct", median(overhead_pct), "%"},
      {"bench.generator_late_pct", open.late_pct(), "%"},
      {"bench.failed_pct", failed_pct(tally), "%"},
      {"bench.host_reads_per_us", mean(speeds), "reads/us"},
  };
  std::cout << "  ledger: layers sum to "
            << format_number(per_packet(layers.worker_sum()))
            << " ns/pkt over " << layers.packets
            << " replayed packets; the runtime's workers took "
            << format_number(service_ns) << " ns/pkt over " << service.packets
            << " traced packets\n";
  return report(tally, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        std::cerr << "unknown flag " << flag << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << flag << ": " << value << "\n";
      return 2;
    }
  }
  const auto workload = find_workload(workload_name);
  if (argc % 2 != 1 || !workload || !have_seed || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    std::cerr << "usage: ofmtl_perfbench --workload "
                 "<acl_uniform|routing_zipf|mac_churn> --seed <n> --seconds "
                 "<s> --trace <0|1>\n";
    return 2;
  }
  try {
    const auto start = Clock::now();
    const Inputs in = make_inputs(*workload, seed);
    std::cout << workload->name << ": seed " << seed << ", "
              << in.flows.size() << " flows, " << in.frame_flow.size()
              << " frames, inputs generated in "
              << seconds_between(start, Clock::now()) << " s; hardware_threads "
              << std::thread::hardware_concurrency() << "\n";
    return trace == 1 ? run_layered(*workload, in, seconds)
                      : run_end_to_end(*workload, in, seconds);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
