#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/flow_key.hpp"
#include "workload/acl_synth.hpp"
#include "workload/rng.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_export.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

// acl_uniform: the only generator with enough distinct flows to defeat the
// flow cache. 131,072 flows are 16x one worker's 8,192 cache slots (uniform
// traffic hits about slots/flows of the time), and the 4k rules over 5
// fields run trie, range and EM search and a 6-stage index calculation on
// every miss.
constexpr std::size_t kAclRules = 4096;
constexpr std::size_t kAclFlows = 131072;
constexpr std::size_t kAclFrames = 262144;
// routing_zipf / mac_churn: the paper's two applications in its per-field
// two-table layout, with Zipf-skewed traffic over 4,096 flows, which fit in
// the cache.
constexpr std::size_t kAppFlows = 4096;
constexpr std::size_t kAppFrames = 65536;
constexpr double kZipfS = 1.1;
constexpr std::size_t kChurnEntries = 64;

constexpr Workload kWorkloads[] = {
    {"acl_uniform", 2, 0, 0.55},
    {"routing_zipf", 2, 0, 2.5},
    {"mac_churn", 1, 16384, 0.5},
};

FieldMatch exact_match_for(FieldId field, std::uint64_t value) {
  const unsigned bits = field_bits(field);
  switch (field_method(field)) {
    case MatchMethod::kLongestPrefix:
      return FieldMatch::of_prefix(Prefix{U128{value}, bits, bits});
    case MatchMethod::kRange:
      return FieldMatch::of_range(value, value);
    default:
      return FieldMatch::exact(value);
  }
}

/// Entries copied from a live entry of `table`, with `field` set to a value
/// that no flow carries (and never 0, the value of an absent field).
std::vector<FlowEntry> make_churn_entries(const ReferencePipeline& reference,
                                          std::size_t table, FieldId field,
                                          const std::vector<PacketHeader>& flows,
                                          std::uint64_t seed) {
  const auto& entries = reference.table(table).entries();
  const auto model = std::find_if(entries.begin(), entries.end(),
                                  [field](const FlowEntry& entry) {
                                    return entry.match.constrains(field);
                                  });
  if (model == entries.end()) {
    throw std::runtime_error("no entry constrains the churn field");
  }
  FlowEntryId next_id = 0;
  for (std::size_t t = 0; t < reference.table_count(); ++t) {
    for (const auto& entry : reference.table(t).entries()) {
      next_id = std::max(next_id, entry.id);
    }
  }
  std::unordered_set<std::uint64_t> taken{0};
  for (const auto& flow : flows) taken.insert(flow.get64(field));

  const unsigned bits = field_bits(field);
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  workload::Rng rng(seed);
  std::vector<FlowEntry> churn;
  while (churn.size() < kChurnEntries) {
    const std::uint64_t value = rng.next() & mask;
    if (!taken.insert(value).second) continue;
    FlowEntry entry = *model;
    entry.id = ++next_id;
    entry.match.set(field, exact_match_for(field, value));
    churn.push_back(std::move(entry));
  }
  return churn;
}

/// `count` distinct flows as the wire parse yields them: rule-derived
/// headers (90%) and random ones (10%), wire-canonicalized, duplicates
/// dropped, so the pool size is the number of flow-cache keys.
std::vector<PacketHeader> distinct_flows(const FilterSet& set,
                                         std::uint32_t in_port,
                                         std::size_t count, std::uint64_t seed) {
  const auto candidates = workload::replayed_headers(
      workload::generate_trace(
          set, {.packets = 4 * count, .hit_ratio = 0.9, .seed = seed}),
      in_port);
  const auto hash = [](const PacketHeader& header) {
    return static_cast<std::size_t>(flow_key_hash(header));
  };
  std::unordered_set<PacketHeader, decltype(hash)> seen(4 * count, hash);
  std::vector<PacketHeader> flows;
  flows.reserve(count);
  for (const auto& header : candidates) {
    if (flows.size() == count) break;
    if (seen.insert(header).second) flows.push_back(header);
  }
  if (flows.size() != count) {
    throw std::runtime_error("filter set yields too few distinct flows");
  }
  return flows;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  for (const auto& workload : kWorkloads) {
    if (workload.name == name) return workload;
  }
  return std::nullopt;
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed) {
  Inputs in;
  FilterSet set;
  FieldId churn_field;
  std::size_t flow_count = kAppFlows;
  std::size_t frame_count = kAppFrames;
  const bool acl = workload.name == "acl_uniform";
  if (acl) {
    set = workload::generate_acl({.rules = kAclRules, .seed = seed});
    in.app.name = set.name;
    in.app.reference.add_table(FlowTable{set.entries});
    in.churn_table = 0;
    churn_field = FieldId::kIpv4Dst;
    flow_count = kAclFlows;
    frame_count = kAclFrames;
  } else {
    const bool routing = workload.name == "routing_zipf";
    set = workload::generate_filterset(
        routing ? workload::FilterApp::kRouting
                : workload::FilterApp::kMacLearning,
        routing ? "yoza" : "gozb", seed);
    in.app = build_app(set, TableLayout::kPerFieldTables);
    in.churn_table = 1;
    churn_field = set.fields.at(1);
  }
  in.in_port = workload::capture_in_port(set);

  in.flows = distinct_flows(set, in.in_port, flow_count, seed + 1);
  // The oracle is a linear scan per flow; spread it over the hardware
  // threads (nothing else runs yet).
  in.expected.resize(in.flows.size());
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> oracle;
  for (std::size_t t = 0; t < threads; ++t) {
    oracle.emplace_back([&in, t, threads] {
      for (std::size_t f = t; f < in.flows.size(); f += threads) {
        in.expected[f] = in.app.reference.execute(in.flows[f]);
      }
    });
  }
  for (auto& thread : oracle) thread.join();

  std::vector<PacketHeader> stream;
  stream.reserve(frame_count);
  in.frame_flow.reserve(frame_count);
  workload::Rng uniform(seed + 2);
  workload::ZipfSampler zipf(flow_count, kZipfS, seed + 2);
  for (std::size_t i = 0; i < frame_count; ++i) {
    const auto flow = static_cast<std::uint32_t>(acl ? uniform.below(flow_count)
                                                     : zipf.next());
    in.frame_flow.push_back(flow);
    stream.push_back(in.flows[flow]);
  }
  in.capture = workload::export_trace(stream).take_buffer();
  in.churn_entries = make_churn_entries(in.app.reference, in.churn_table,
                                        churn_field, in.flows, seed + 3);
  return in;
}

}  // namespace perfbench
