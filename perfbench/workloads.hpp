// The benchmark's workloads and the inputs it generates for them from a
// seed: a filter set with its ReferencePipeline oracle, a pcap capture of
// the workload's traffic, the oracle's result for every distinct flow, and
// the flow entries the controller adds and deletes. Generation is the
// benchmark's own work and is never timed as set-up.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/builder.hpp"
#include "flow/flow_entry.hpp"
#include "net/header.hpp"

namespace perfbench {

/// One workload: what it loads, its thread budget and its open-loop rate.
struct Workload {
  std::string_view name;
  /// Runtime worker threads (the data plane also has one producer).
  std::size_t workers;
  /// When nonzero, a controller thread churns flow-mods beside the traffic,
  /// one batch each time the producer has submitted this many more packets.
  /// Pacing by traffic rather than by the clock fixes how many packets each
  /// publish's voided flow cache is spread over, so a slower moment of the
  /// host does not also raise the share of cache misses. When zero, the
  /// flow-mod round trip is measured on the main thread after the traffic.
  std::uint64_t churn_packets_per_batch;
  /// Open-loop offered rate, about half the closed-loop rate measured on
  /// the reference machine (4 hardware threads).
  double offered_mpps;
};

/// The workload named `name`, or nullopt.
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name);

/// Everything a run needs, generated deterministically from (workload, seed).
struct Inputs {
  ofmtl::AppSpec app;  ///< the ReferencePipeline oracle
  std::uint32_t in_port = 0;
  std::vector<std::uint8_t> capture;      ///< classic pcap image
  std::vector<std::uint32_t> frame_flow;  ///< flow index of every frame
  /// Each flow as the wire parse yields it, and the oracle's result for it.
  std::vector<ofmtl::PacketHeader> flows;
  std::vector<ofmtl::ExecutionResult> expected;
  /// Entries the controller adds and then deletes on `churn_table`. Their
  /// address field holds a value no flow carries, so they never change a
  /// verdict and every packet stays checkable against the oracle.
  std::size_t churn_table = 0;
  std::vector<ofmtl::FlowEntry> churn_entries;
};

[[nodiscard]] Inputs make_inputs(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench
