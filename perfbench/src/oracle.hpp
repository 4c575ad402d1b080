// Decision oracle shared by every workload.
//
// A served decision is accepted only if it equals a reference computed
// apart from the serving path: the flow's own packets go through the
// offline traffic extractors (ExtractStatFeatures / ExtractSeqFeatures)
// and the host-side core::CompiledModel::Evaluate of the model version
// stamped on the decision. No FlowTable, shard, ring, batch or match index
// is involved in the reference.
//
// Flow-state restarts: after an eviction a flow re-enters the table with a
// fresh window, so its decisions show a gap of W-1 packets. The oracle
// reads the restart point off that gap and checks every later decision
// against the flow's packets since re-insertion.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/tablegen.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/packet.hpp"

namespace perfbench {

/// Where the oracle finds a flow's packets. `packets == nullptr` means the
/// flow is not in the checked sample. Flows with equal `ref_key` have equal
/// packet contents (a re-lapped trace), so their references are shared.
struct FlowRef {
  const std::vector<pegasus::traffic::Packet>* packets = nullptr;
  std::uint64_t ref_key = 0;
};

class Oracle {
 public:
  using Resolve = std::function<FlowRef(std::uint32_t flow)>;
  /// Version that was live when the decision's packet was pushed.
  using ExpectedVersion =
      std::function<std::uint64_t(const pegasus::runtime::StreamDecision&)>;

  /// `models[(v - 1) % models.size()]` is the model content of version v
  /// (versions alternate between the listed models, starting at 1).
  Oracle(pegasus::runtime::FeatureKind feature,
         std::vector<const pegasus::core::CompiledModel*> models);

  /// Checks decisions in per-flow order (any interleaving across flows).
  /// Returns the number rejected by this call.
  std::uint64_t Check(std::span<const pegasus::runtime::StreamDecision> ds,
                      const Resolve& resolve,
                      const ExpectedVersion& expected_version);

  std::uint64_t checked() const { return checked_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t restarts() const { return restarts_; }
  /// The first few rejection reasons, for the run log.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Ref {
    std::int32_t predicted = 0;
    float score = 0.0f;
  };
  struct FlowState {
    std::int64_t last_index = -1;
    std::uint32_t restart = 0;
  };

  /// Reference for the window ending at packet `index` of a flow whose
  /// state (re)started at packet `restart`.
  const Ref* Reference(const FlowRef& flow, std::uint32_t restart,
                       std::size_t model, std::uint32_t index);
  void Reject(const pegasus::runtime::StreamDecision& d, const char* why);

  pegasus::runtime::FeatureKind feature_;
  std::vector<const pegasus::core::CompiledModel*> models_;
  std::unordered_map<std::uint32_t, FlowState> flows_;
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::size_t>,
           std::vector<Ref>>
      refs_;
  std::uint64_t checked_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t restarts_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
