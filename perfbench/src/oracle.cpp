#include "oracle.hpp"

#include <cstdio>
#include <limits>

#include "traffic/features.hpp"

namespace perfbench {

namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

namespace {

constexpr std::uint32_t kW = static_cast<std::uint32_t>(tr::kWindow);

}  // namespace

Oracle::Oracle(rt::FeatureKind feature,
               std::vector<const pegasus::core::CompiledModel*> models)
    : feature_(feature), models_(std::move(models)) {}

const Oracle::Ref* Oracle::Reference(const FlowRef& flow,
                                     std::uint32_t restart, std::size_t model,
                                     std::uint32_t index) {
  const std::size_t pos = index - restart - (kW - 1);
  std::vector<Ref>& refs = refs_[{flow.ref_key, restart, model}];
  if (pos < refs.size()) return &refs[pos];
  // Not computed yet, or the flow has grown since: extract every window of
  // the flow's packets from `restart` on, offline, and evaluate each.
  if (index >= flow.packets->size()) return nullptr;
  std::vector<tr::Flow> one(1);
  one[0].packets.assign(flow.packets->begin() + restart, flow.packets->end());
  tr::ExtractOptions all;
  all.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  const tr::SampleSet set = feature_ == rt::FeatureKind::kStat
                                ? tr::ExtractStatFeatures(one, all)
                                : tr::ExtractSeqFeatures(one, all);
  refs.clear();
  refs.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    const std::vector<float> out = models_[model]->Evaluate(
        std::span<const float>(set.x.data() + i * set.dim, set.dim));
    Ref r;
    for (std::size_t d = 1; d < out.size(); ++d) {
      if (out[d] > out[static_cast<std::size_t>(r.predicted)]) {
        r.predicted = static_cast<std::int32_t>(d);
      }
    }
    r.score = out[static_cast<std::size_t>(r.predicted)];
    refs.push_back(r);
  }
  return pos < refs.size() ? &refs[pos] : nullptr;
}

void Oracle::Reject(const rt::StreamDecision& d, const char* why) {
  ++rejected_;
  if (errors_.size() < 8) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "flow %u packet %u version %llu predicted %d score %.6g: %s",
                  d.flow, d.index, static_cast<unsigned long long>(d.version),
                  d.predicted, static_cast<double>(d.score), why);
    errors_.emplace_back(buf);
  }
}

std::uint64_t Oracle::Check(std::span<const rt::StreamDecision> ds,
                            const Resolve& resolve,
                            const ExpectedVersion& expected_version) {
  const std::uint64_t before = rejected_;
  for (const rt::StreamDecision& d : ds) {
    const FlowRef flow = resolve(d.flow);
    if (flow.packets == nullptr) continue;
    ++checked_;
    FlowState& st = flows_[d.flow];
    const std::int64_t next = st.last_index < 0
                                  ? std::int64_t{st.restart} + (kW - 1)
                                  : st.last_index + 1;
    const std::int64_t j = d.index;
    if (j < next) {
      Reject(d, "decision out of order or repeated");
      continue;
    }
    if (j > next) {
      // Gap: the flow's state was evicted and re-inserted at j - (W-1),
      // which must come after the last decided packet.
      const std::int64_t restart = j - (kW - 1);
      if (restart <= st.last_index) {
        Reject(d, "gap shorter than a restarted window");
        continue;
      }
      st.restart = static_cast<std::uint32_t>(restart);
      ++restarts_;
    }
    st.last_index = j;
    if (d.version == 0 || d.version != expected_version(d)) {
      Reject(d, "version differs from the one live at push");
      continue;
    }
    const Ref* ref = Reference(flow, st.restart,
                               (d.version - 1) % models_.size(), d.index);
    if (ref == nullptr) {
      Reject(d, "no such packet in the flow");
    } else if (ref->predicted != d.predicted || ref->score != d.score) {
      Reject(d, "differs from CompiledModel::Evaluate on offline features");
    }
  }
  return rejected_ - before;
}

}  // namespace perfbench
