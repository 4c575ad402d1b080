#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include <x86intrin.h>

#include "compiler/compiler.hpp"
#include "control/planner.hpp"
#include "eval/experiment.hpp"
#include "models/cnn_m.hpp"
#include "models/mlp_b.hpp"
#include "oracle.hpp"
#include "runtime/flow_table.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/synthetic.hpp"

namespace perfbench {
namespace {

namespace comp = pegasus::compiler;
namespace ctrl = pegasus::control;
namespace dp = pegasus::dataplane;
namespace ev = pegasus::eval;
namespace md = pegasus::models;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ns(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

// ---------------------------------------------------------------- workloads

/// p99 limit (scheduled send -> decision) a paced level must meet to count
/// towards slo_rate_pps.
constexpr double kLatencyLimitUs = 50'000.0;
/// Telemetry sampling in the paced phase: every packet carries a push stamp,
/// so every decision carries its latency_ns.
constexpr std::uint32_t kSampleEvery = 1;
/// The traced run's named layers must add up to the traced loop's own time
/// within this share; the rest is loop glue and argmax.
constexpr double kLedgerTolerance = 0.05;
/// A paced level's latency quantiles are taken per slice of its schedule
/// and the median over slices is reported, so a host stall moves the
/// slices it falls in, not the level. A level has as many slices (at most
/// kMaxSlices) as it has kMinSliceSamples decisions, so each slice's p99
/// keeps at least ten samples beyond it. Many short slices keep a level's
/// median clean as long as stalls hit fewer than half of them.
constexpr std::size_t kMaxSlices = 128;
constexpr std::size_t kMinSliceSamples = 1000;
/// Paced swap cadence, scheduled packets. Latency slices are cut on this
/// grid, so every slice holds whole swap periods and the same swap load.
constexpr std::uint64_t kPacedSwapEvery = 1024;
/// Share of --seconds a traced run gives to the closed phase.
constexpr double kTracedClosedShare = 0.5;
/// A paced level's generator lag "grows" when the median lateness of its
/// last quarter exceeds that of its first quarter by more than this.
constexpr double kLagGrowthUs = 1'000.0;

enum class Traffic { kRelap, kChurn };

struct Spec {
  const char* name;
  rt::FeatureKind feature;
  Traffic traffic;
  bool swaps;
  /// Offered rates of the paced levels low / mid / high, packets/s.
  std::array<double, 3> rates;
};

const Spec kSpecs[] = {
    {"mlp_stat_closed", rt::FeatureKind::kStat, Traffic::kRelap, false,
     {10e3, 30e3, 60e3}},
    {"churn_seq_closed", rt::FeatureKind::kSeq, Traffic::kChurn, false,
     {200e3, 300e3, 400e3}},
    {"mlp_paced_swap", rt::FeatureKind::kStat, Traffic::kRelap, true,
     {10e3, 30e3, 60e3}},
};
const char* const kLevelNames[3] = {"low", "mid", "high"};

/// Input sizes; the short mode shrinks every one of them.
struct Sizes {
  std::size_t peerrush_flows = 150;  // per class
  std::size_t mlp_epochs = 25;
  std::size_t cnn_epochs = 12;
  std::size_t churn_live = std::size_t{1} << 20;
  std::size_t setup_reps = 5;
  /// A churn flow is checked by the oracle when these digest bits are 0.
  std::uint64_t churn_sample_mask = 63;
  std::uint64_t closed_swap_every = 25'000;  // packets
};

Sizes SizesFor(bool short_mode) {
  Sizes z;
  if (short_mode) {
    z.peerrush_flows = 30;
    z.mlp_epochs = 3;
    z.cnn_epochs = 2;
    z.churn_live = std::size_t{1} << 12;
    z.setup_reps = 1;
    z.churn_sample_mask = 3;
    z.closed_swap_every = 2'000;
  }
  return z;
}

const Spec& FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 != 0) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::uint64_t HashDecision(std::uint64_t h, const rt::StreamDecision& d) {
  std::uint32_t score_bits = 0;
  static_assert(sizeof score_bits == sizeof d.score);
  std::memcpy(&score_bits, &d.score, sizeof score_bits);
  for (const std::uint64_t x :
       {std::uint64_t{d.flow}, std::uint64_t{d.index},
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.predicted)),
        std::uint64_t{score_bits}, d.version}) {
    h = rt::MixDigest(h ^ x);
  }
  return h;
}

struct Usage {
  double cpu_ms = 0.0;
  std::uint64_t ctx_switches = 0;
  double peak_rss_mb = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)) *
                 1e3 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e3;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

// ------------------------------------------------------------------ streams

/// An endless, seed-determined packet stream. Flow ids are unique over the
/// stream's life; the oracle resolves them to the flow's packets.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual void Next(tr::TracePacket& out) = 0;
  virtual FlowRef Ref(std::uint32_t flow) const = 0;
  /// Stream position of packet `index` of `flow`. Streams without a closed
  /// form answer only for packets emitted since the last Mark() and only
  /// after Index() has seen the decisions to be resolved.
  virtual bool SeqOf(std::uint32_t flow, std::uint32_t index,
                     std::uint64_t& seq) const = 0;
  virtual void Mark() {}
  virtual void Index(std::span<const rt::StreamDecision>) {}
  /// Packets emitted so far (= position of the next packet).
  std::uint64_t position() const { return next_; }

 protected:
  std::uint64_t next_ = 0;
};

/// The merged PeerRush trace, re-lapped: lap k replays lap 0 with every
/// flow digest remapped, so every lap brings fresh flows carrying lap 0's
/// packets. The seed sets the flow start offsets (interleaving) and the
/// digests (shard routing, table slots).
class RelapStream final : public Stream {
 public:
  RelapStream(const std::vector<tr::Flow>& flows, std::uint64_t seed)
      : flows_(&flows),
        lap_(tr::MergeTrace(flows, tr::MergeOptions{.seed = seed})),
        salt_(rt::MixDigest(seed)),
        pos_(flows.size()) {
    for (std::size_t i = 0; i < lap_.size(); ++i) {
      pos_[lap_[i].flow].push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::size_t lap_packets() const { return lap_.size(); }

  void Next(tr::TracePacket& out) override {
    const std::uint64_t lap = next_ / lap_.size();
    const tr::TracePacket& src = lap_[next_ % lap_.size()];
    out = src;
    out.flow = static_cast<std::uint32_t>(lap * flows_->size() + src.flow);
    out.key.digest =
        rt::MixDigest(src.key.digest ^ (salt_ + lap * 0x9E3779B97F4A7C15ull));
    ++next_;
  }

  FlowRef Ref(std::uint32_t flow) const override {
    const std::size_t f0 = flow % flows_->size();
    return {&(*flows_)[f0].packets, f0};
  }

  bool SeqOf(std::uint32_t flow, std::uint32_t index,
             std::uint64_t& seq) const override {
    const auto& pos = pos_[flow % flows_->size()];
    if (index >= pos.size()) return false;
    seq = (flow / flows_->size()) * lap_.size() + pos[index];
    return true;
  }

 private:
  const std::vector<tr::Flow>* flows_;
  std::vector<tr::TracePacket> lap_;
  std::uint64_t salt_;
  std::vector<std::vector<std::uint32_t>> pos_;
};

/// traffic::ChurnGenerator, endless. Packets of a digest-selected sample of
/// flows are kept for the oracle.
class ChurnStream final : public Stream {
 public:
  ChurnStream(std::size_t live_flows, std::uint64_t seed,
              std::uint64_t sample_mask)
      : gen_(Spec(live_flows, seed)), mask_(sample_mask) {}

  void Next(tr::TracePacket& out) override {
    gen_.Next(out);
    if (((out.key.digest >> 40) & mask_) == 0) {
      book_[out.flow].push_back(*out.packet);
    }
    if (logging_) log_.push_back(Key(out.flow, out.index));
    ++next_;
  }

  FlowRef Ref(std::uint32_t flow) const override {
    const auto it = book_.find(flow);
    if (it == book_.end()) return {};
    return {&it->second, flow};
  }

  bool SeqOf(std::uint32_t flow, std::uint32_t index,
             std::uint64_t& seq) const override {
    const auto it = seq_.find(Key(flow, index));
    if (it == seq_.end()) return false;
    seq = it->second;
    return true;
  }

  void Mark() override {
    log_.clear();
    seq_.clear();
    log_base_ = next_;
    logging_ = true;
  }

  void Index(std::span<const rt::StreamDecision> ds) override {
    std::unordered_set<std::uint32_t> want;
    for (const auto& d : ds) want.insert(d.flow);
    seq_.clear();
    seq_.reserve(ds.size() * 2);
    for (std::size_t i = 0; i < log_.size(); ++i) {
      if (want.count(static_cast<std::uint32_t>(log_[i] >> 32)) != 0) {
        seq_.emplace(log_[i], log_base_ + i);
      }
    }
  }

 private:
  static tr::ChurnSpec Spec(std::size_t live_flows, std::uint64_t seed) {
    tr::ChurnSpec spec;
    spec.live_flows = live_flows;
    spec.packets = std::numeric_limits<std::size_t>::max();
    spec.seed = 7'001 + seed;
    return spec;
  }
  static std::uint64_t Key(std::uint32_t flow, std::uint32_t index) {
    return (std::uint64_t{flow} << 32) | index;
  }

  tr::ChurnGenerator gen_;
  std::uint64_t mask_;
  std::unordered_map<std::uint32_t, std::vector<tr::Packet>> book_;
  bool logging_ = false;
  std::uint64_t log_base_ = 0;
  std::vector<std::uint64_t> log_;
  std::unordered_map<std::uint64_t, std::uint64_t> seq_;
};

// ------------------------------------------------------------------- set-up

/// Everything a workload serves: trained + placed model contents (versions
/// alternate between them) and the traffic's source data.
struct Setup {
  ev::PreparedDataset prep;
  std::vector<comp::VersionedModel> contents;
  /// Every table of content i -> content i+1 is unchanged or an entry delta,
  /// so swaps go through SwapModelDelta; otherwise through SwapModel.
  bool delta = false;
  std::vector<std::vector<dp::TablePatch>> patches;
  double train_s = 0.0;
  double place_s = 0.0;
};

std::unique_ptr<Stream> MakeStream(const Spec& spec, const Sizes& z,
                                   const Setup& s, std::uint64_t seed) {
  if (spec.traffic == Traffic::kRelap) {
    return std::make_unique<RelapStream>(s.prep.dataset.flows, seed);
  }
  return std::make_unique<ChurnStream>(z.churn_live, seed,
                                       z.churn_sample_mask);
}

std::unique_ptr<Setup> BuildSetup(const Spec& spec, const Sizes& z) {
  auto s = std::make_unique<Setup>();
  s->prep = ev::Prepare(tr::PeerRushSpec(z.peerrush_flows),
                        /*with_raw_bytes=*/false);
  const auto& train = spec.feature == rt::FeatureKind::kStat
                          ? s->prep.stat.train
                          : s->prep.seq.train;
  std::vector<std::unique_ptr<md::TrainedModel>> trained;
  auto t0 = Clock::now();
  if (spec.feature == rt::FeatureKind::kStat) {
    md::MlpBConfig cfg;
    cfg.epochs = z.mlp_epochs;
    trained.push_back(md::MlpB::Train(train.x, train.labels, train.size(),
                                      train.dim, s->prep.num_classes, cfg));
    if (spec.swaps) {
      // Same network, leaf outputs left unrefined: the second version a
      // control plane pushes after re-deriving the tables.
      cfg.compile.refine_outputs = false;
      trained.push_back(md::MlpB::Train(train.x, train.labels, train.size(),
                                        train.dim, s->prep.num_classes, cfg));
    }
  } else {
    md::CnnMConfig cfg;
    cfg.epochs = z.cnn_epochs;
    trained.push_back(md::CnnM::Train(train.x, train.labels, train.size(),
                                      train.dim, s->prep.num_classes, cfg));
  }
  s->train_s = Seconds(Clock::now() - t0);

  rt::LoweringOptions lopts;
  lopts.stateful_bits_per_flow =
      rt::OnlineFlowStateSpec(spec.feature).BitsPerFlow();
  t0 = Clock::now();
  for (const auto& m : trained) {
    s->contents.push_back(comp::CompileVersioned(m->Compiled(), lopts));
  }
  s->place_s = Seconds(Clock::now() - t0);

  if (s->contents.size() == 2) {
    s->delta = true;
    for (std::size_t i = 0; i < 2; ++i) {
      const auto plan =
          ctrl::PlanUpdate(s->contents[i], s->contents[(i + 1) % 2]);
      s->delta = s->delta && !plan.structure_changed && plan.reseal == 0;
      if (s->delta) s->patches.push_back(ctrl::CollectPatches(plan));
    }
    if (!s->delta) s->patches.clear();
  }
  return s;
}

/// Flow-table capacity of the whole server: room for a few laps of the
/// re-lapped trace; exactly the live working set for churn.
std::size_t TableCapacity(const Spec& spec, const Sizes& z) {
  return spec.traffic == Traffic::kRelap ? std::size_t{1} << 12
                                         : z.churn_live;
}

/// Packets served before measuring: one lap of the trace, or a number of
/// live working sets of churn. Two fill the table and start eviction,
/// which is enough for the closed phase's ledger. The paced phase needs
/// the churn's steady state: every flow of the generator's pool starts at
/// packet 0, so the decision rate overshoots 1.8x near 7 working sets and
/// settles, within 2%, only from about 17 (measured at 2^18 and 2^20 live
/// flows). A latency level served before then sits on that ramp, and the
/// median over its slices moves with every slice a host stall spoils.
std::uint64_t WarmPackets(const Spec& spec, const Sizes& z, Stream& stream,
                          bool paced) {
  if (spec.traffic == Traffic::kRelap) {
    return static_cast<RelapStream&>(stream).lap_packets();
  }
  return (paced ? 17 : 2) * z.churn_live;
}

/// Issues the next hot swap: versions alternate between the contents.
void Swap(rt::StreamServer& server, const Setup& s, std::uint64_t& version) {
  const std::size_t from = (version - 1) % s.contents.size();
  const std::size_t to = version % s.contents.size();
  ++version;
  if (s.delta) {
    server.SwapModelDelta(s.patches[from], version);
  } else {
    server.SwapModel(s.contents[to].lowered, version);
  }
}

std::vector<const pegasus::core::CompiledModel*> OracleModels(
    const Setup& s) {
  std::vector<const pegasus::core::CompiledModel*> out;
  for (const auto& c : s.contents) out.push_back(c.compiled.get());
  return out;
}

/// Version live when the packet at stream position `seq` was pushed: one
/// more than the swaps issued at or before that position.
std::uint64_t VersionAt(const std::vector<std::uint64_t>& swaps,
                        std::uint64_t seq) {
  return 1 + static_cast<std::uint64_t>(
                 std::upper_bound(swaps.begin(), swaps.end(), seq) -
                 swaps.begin());
}

/// Accounting identities of one served span with zero shed.
bool AccountingHolds(const rt::StreamServerStats& st, std::uint64_t offered) {
  return st.packets + st.shed.ring_full + st.shed.misrouted == offered &&
         st.packets == st.decisions + st.warmup + st.shed.inference &&
         st.shed.total() == 0;
}

// ------------------------------------------------------------ traced ledger

/// Packets drawn from a stream ahead of serving them, so the stream's own
/// cost stays out of the timed loop. Payloads are copied: a generator may
/// reuse its packet buffer.
struct Chunk {
  std::vector<tr::TracePacket> packets;
  std::vector<tr::Packet> payloads;
  /// Stream position of each packet (swap points are positions).
  std::vector<std::uint64_t> positions;

  void Fill(Stream& stream, std::size_t n) {
    packets.resize(n);
    payloads.resize(n);
    positions.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      positions[k] = stream.position();
      stream.Next(packets[k]);
      payloads[k] = *packets[k].packet;
      packets[k].packet = &payloads[k];
    }
  }
};

/// Per-layer time of the traced composition, in TSC ticks (a read costs
/// about half of a steady_clock read; converted with a calibration taken
/// over the closed phase).
struct Ledger {
  std::uint64_t table = 0;
  std::uint64_t extract = 0;
  std::uint64_t engine = 0;
  std::uint64_t pipeline = 0;
  std::uint64_t whole = 0;
  std::uint64_t packets = 0;    // timed
  std::uint64_t decisions = 0;  // decided in timed flushes
  std::uint64_t hash = 0;       // every decision, for equality with the server
  std::uint64_t all_decisions = 0;
  double ns_per_tick = 0.0;
};

/// The benchmark's own composition of the public layer calls —
/// FlowTable::FindOrInsert, OnlineFeatureExtractor::Update/Emit*,
/// InferenceEngine::Infer — over the server's packets, with a clock read
/// between consecutive calls. Pipeline::ProcessBatch also runs on a
/// copy of each batch's PHVs, packed the way the engine packs them, to split
/// Infer into table work and pack / dequantise; that copy and the swaps are
/// left out of the loop's time.
class Composition {
 public:
  Composition(const Spec& spec, const Sizes& z, const Setup& s)
      : spec_(spec),
        s_(s),
        table_(rt::FlowTableOptions{.capacity = TableCapacity(spec, z)}),
        dim_(rt::FeatureDim(spec.feature)),
        out_dim_(s.contents[0].lowered->OutputDim()),
        rows_(kBatch * dim_),
        logits_(kBatch * out_dim_),
        meta_(kBatch),
        phvs_(s.contents.size()) {
    for (std::size_t c = 0; c < s.contents.size(); ++c) {
      engines_.push_back(std::make_unique<rt::InferenceEngine>(
          *s.contents[c].lowered, kBatch));
      phvs_[c].assign(kBatch, dp::Phv(s.contents[c].lowered->layout()));
    }
  }

  /// Serves `chunk`, swapping at the stream positions listed in `swaps`
  /// exactly where the server did.
  void Run(const Chunk& chunk, bool timed,
           const std::vector<std::uint64_t>& swaps) {
    const std::uint64_t begin = __rdtsc();
    std::uint64_t excluded = 0;
    std::uint64_t t = begin;
    for (std::size_t k = 0; k < chunk.packets.size(); ++k) {
      if (next_swap_ < swaps.size() &&
          swaps[next_swap_] == chunk.positions[k]) {
        Flush();
        content_ = (content_ + 1) % s_.contents.size();
        ++version_;
        ++next_swap_;
        const std::uint64_t now = __rdtsc();
        excluded += now - t;
        t = now;
      }
      const tr::TracePacket& p = chunk.packets[k];
      const std::uint64_t t1 = t;
      tr::OnlineFlowState& st = table_.FindOrInsert(p.key);
      const std::uint64_t t2 = __rdtsc();
      extractor_.Update(st, *p.packet, p.ts_us);
      const bool full = st.WindowFull();
      if (full) {
        float* row = rows_.data() + pending_ * dim_;
        if (spec_.feature == rt::FeatureKind::kStat) {
          extractor_.EmitStat(st, row);
        } else {
          extractor_.EmitSeq(st, row);
        }
      }
      const std::uint64_t t3 = __rdtsc();
      if (timed) {
        lg_.table += t2 - t1;
        lg_.extract += t3 - t2;
      }
      t = t3;
      if (!full) continue;
      meta_[pending_] = {p.flow, p.index};
      if (++pending_ == kBatch) t = FlushBatch(timed, excluded);
    }
    if (timed) {
      lg_.whole += t - begin - excluded;
      lg_.packets += chunk.packets.size();
    }
  }

  /// Runs the partial batch (the server's Flush / swap boundary).
  void Flush() {
    std::uint64_t ignored = 0;
    FlushBatch(false, ignored);
  }

  Ledger& ledger() { return lg_; }

 private:
  static constexpr std::size_t kBatch =
      rt::InferenceEngine::kDefaultBatchCapacity;
  struct Meta {
    std::uint32_t flow;
    std::uint32_t index;
  };

  /// Runs the pending batch; returns the tick to resume the chain from.
  std::uint64_t FlushBatch(bool timed, std::uint64_t& excluded) {
    const std::uint64_t t4 = __rdtsc();
    if (pending_ == 0) return t4;
    engines_[content_]->Infer(
        std::span<const float>(rows_.data(), pending_ * dim_), pending_,
        std::span<float>(logits_.data(), pending_ * out_dim_));
    const std::uint64_t t5 = __rdtsc();
    for (std::size_t i = 0; i < pending_; ++i) {
      const float* row = logits_.data() + i * out_dim_;
      std::size_t best = 0;
      for (std::size_t d = 1; d < out_dim_; ++d) {
        if (row[d] > row[best]) best = d;
      }
      rt::StreamDecision d;
      d.flow = meta_[i].flow;
      d.index = meta_[i].index;
      d.predicted = static_cast<std::int32_t>(best);
      d.score = row[best];
      d.version = version_;
      lg_.hash = HashDecision(lg_.hash, d);
    }
    lg_.all_decisions += pending_;
    const std::uint64_t t6 = __rdtsc();
    if (!timed) {
      pending_ = 0;
      return t6;
    }
    lg_.engine += t5 - t4;
    lg_.decisions += pending_;
    const rt::LoweredModel& m = *s_.contents[content_].lowered;
    const std::int64_t dmax = (std::int64_t{1} << m.input_bits()) - 1;
    for (std::size_t i = 0; i < pending_; ++i) {
      dp::Phv& phv = phvs_[content_][i];
      phv.Reset();
      for (std::size_t f = 0; f < dim_; ++f) {
        phv.Set(m.input_fields()[f],
                std::clamp<std::int64_t>(std::llround(rows_[i * dim_ + f]), 0,
                                         dmax));
      }
      for (const auto& [field, value] : m.parser_inits()) phv.Set(field, value);
    }
    const std::uint64_t p0 = __rdtsc();
    m.pipeline().ProcessBatch(
        std::span<dp::Phv>(phvs_[content_].data(), pending_));
    const std::uint64_t p1 = __rdtsc();
    lg_.pipeline += p1 - p0;
    pending_ = 0;
    const std::uint64_t t7 = __rdtsc();
    excluded += t7 - t6;
    return t7;
  }

  const Spec& spec_;
  const Setup& s_;
  rt::FlowTable<tr::OnlineFlowState> table_;
  tr::OnlineFeatureExtractor extractor_;
  std::vector<std::unique_ptr<rt::InferenceEngine>> engines_;
  std::size_t dim_;
  std::size_t out_dim_;
  std::vector<float> rows_;
  std::vector<float> logits_;
  std::vector<Meta> meta_;
  std::vector<std::vector<dp::Phv>> phvs_;
  std::size_t content_ = 0;
  std::uint64_t version_ = 1;
  std::size_t pending_ = 0;
  std::size_t next_swap_ = 0;
  Ledger lg_;
};

// ------------------------------------------------------------ closed phase

struct ClosedOut {
  std::uint64_t packets = 0;  // measured
  double seconds = 0.0;
  /// Drawing the packets from the stream, outside the timed loop.
  double gen_ns_per_pkt = 0.0;
  rt::StreamServerStats stats;
  /// Over every decision the server made (warm-up included).
  std::uint64_t hash = 0;
  std::uint64_t decisions = 0;
  std::vector<std::uint64_t> swaps;
  std::uint64_t failed = 0;
  bool accounting = true;
};

/// One single-threaded shard, closed loop (traced runs): the next packet is
/// pushed when Push returns. Packets are drawn in chunks ahead of the timed
/// loop, and decisions are drained and checked between timed chunks. Every
/// server chunk is followed by the same chunk through the composition, so
/// both see the same host state.
class ClosedPhase {
 public:
  ClosedPhase(const Spec& spec, const Sizes& z, const Setup& s,
              std::unique_ptr<Stream> stream, Oracle& oracle,
              Composition& comp)
      : spec_(spec),
        z_(z),
        s_(s),
        stream_(std::move(stream)),
        oracle_(oracle),
        comp_(comp),
        server_(s.contents[0].lowered, Options(spec, z), 1) {
    for (std::uint64_t left = WarmPackets(spec, z, *stream_, false);
         left != 0;) {
      const std::uint64_t n = std::min(left, kChunk);
      chunk_.Fill(*stream_, n);
      for (const auto& p : chunk_.packets) server_.Push(p);
      comp_.Run(chunk_, false, out_.swaps);
      left -= n;
    }
    server_.Flush();
    comp_.Flush();
    Drain();
    server_.ResetStats();
  }

  /// Serves timed chunks until `seconds` more of serving time are measured.
  void Measure(double seconds) {
    const double until = out_.seconds + seconds;
    while (out_.seconds < until) {
      const auto g0 = Clock::now();
      chunk_.Fill(*stream_, kChunk);
      gen_ns_ += Ns(Clock::now() - g0);
      const auto t0 = Clock::now();
      const std::uint64_t tsc0 = __rdtsc();
      for (std::uint64_t k = 0; k < kChunk; ++k) {
        if (spec_.swaps && chunk_.positions[k] % z_.closed_swap_every == 0) {
          out_.swaps.push_back(chunk_.positions[k]);
          Swap(server_, s_, version_);
        }
        server_.Push(chunk_.packets[k]);
      }
      const auto dt = Clock::now() - t0;
      out_.seconds += Seconds(dt);
      out_.packets += kChunk;
      cal_ns_ += Ns(dt);
      cal_ticks_ += __rdtsc() - tsc0;
      comp_.Run(chunk_, true, out_.swaps);
      Drain();
    }
  }

  ClosedOut Finish() {
    server_.Flush();
    Drain();
    comp_.Flush();
    comp_.ledger().ns_per_tick = cal_ns_ / static_cast<double>(cal_ticks_);
    out_.stats = server_.Stats();
    out_.accounting = AccountingHolds(out_.stats, out_.packets);
    out_.failed += out_.stats.shed.total();
    out_.gen_ns_per_pkt = gen_ns_ / static_cast<double>(out_.packets);
    return out_;
  }

 private:
  static rt::StreamServerOptions Options(const Spec& spec, const Sizes& z) {
    rt::StreamServerOptions o;
    o.num_shards = 1;
    o.flows_per_shard = TableCapacity(spec, z);
    o.feature = spec.feature;
    return o;
  }

  void Drain() {
    const auto ds = server_.TakeDecisions();
    out_.decisions += ds.size();
    for (const auto& d : ds) out_.hash = HashDecision(out_.hash, d);
    out_.failed += oracle_.Check(
        ds, [&](std::uint32_t flow) { return stream_->Ref(flow); },
        [&](const rt::StreamDecision& d) -> std::uint64_t {
          std::uint64_t seq = 0;
          if (out_.swaps.empty()) return 1;
          return stream_->SeqOf(d.flow, d.index, seq)
                     ? VersionAt(out_.swaps, seq)
                     : 0;
        });
  }

  const Spec& spec_;
  const Sizes& z_;
  const Setup& s_;
  std::unique_ptr<Stream> stream_;
  Oracle& oracle_;
  Composition& comp_;
  rt::StreamServer server_;
  std::uint64_t version_ = 1;
  static constexpr std::uint64_t kChunk = 4096;
  Chunk chunk_;
  ClosedOut out_;
  double gen_ns_ = 0.0;
  double cal_ns_ = 0.0;
  std::uint64_t cal_ticks_ = 0;
};

// ------------------------------------------------------------- paced phase

struct LevelOut {
  double rate = 0.0;
  std::uint64_t pushed = 0;
  double delivered_pps = 0.0;
  std::size_t samples = 0;
  std::size_t slices = 0;
  std::vector<double> slice_p99_us;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lag_p99_us = 0.0;
  bool lag_grows = false;
  double batch_fill = 0.0;
  std::size_t ring_hwm = 0;
  double cpu_ms = 0.0;
  std::uint64_t ctx_switches = 0;
};

/// Shard workers of the paced server. With the producer that is two
/// threads (the watchdog is off), so on four CPUs two stay free for the
/// rest of the system and the tail measures the server, not preemption.
constexpr std::size_t kPacedShards = 1;
/// The paced warm-up hands its decisions to the oracle every this many
/// packets, so a long churn warm-up does not hold them all at once.
constexpr std::uint64_t kWarmCheckEvery = std::uint64_t{1} << 20;

/// A multi-threaded server fed by one producer at fixed offered rates, open
/// loop: packet i of a level is due at t0 + i / rate whether or not the
/// server kept up. Latency of a decision = the producer's lateness at Push
/// plus the decision's own latency_ns (push stamp -> decision emit).
class PacedPhase {
 public:
  PacedPhase(const Spec& spec, const Sizes& z, const Setup& s,
             std::unique_ptr<Stream> stream, Oracle& oracle)
      : spec_(spec),
        z_(z),
        s_(s),
        stream_(std::move(stream)),
        oracle_(oracle),
        server_(s.contents[0].lowered, Options(spec, z), 1) {
    // Warm-up before Start(): Push processes synchronously on this thread.
    tr::TracePacket p;
    const std::uint64_t warm = WarmPackets(spec, z, *stream_, true);
    for (std::uint64_t i = 0; i < warm; ++i) {
      stream_->Next(p);
      server_.Push(p);
      if ((i + 1) % kWarmCheckEvery == 0) Check(server_.TakeDecisions());
    }
    server_.Flush();
    Check(server_.TakeDecisions());
  }

  std::size_t threads() const {
    return 1 + kPacedShards +
           (server_.options().watchdog_interval_us != 0 ? 1 : 0);
  }
  const std::vector<double>& swap_call_ms() const { return swap_call_ms_; }
  double swap_wall_ms() const { return swap_wall_ms_; }
  std::uint64_t swap_applications() const { return swap_applications_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t unresolved() const { return unresolved_; }
  bool accounting() const { return accounting_; }

  LevelOut Level(double rate, double seconds) {
    LevelOut lv;
    lv.rate = rate;
    server_.ResetStats();
    stream_->Mark();
    const std::uint64_t base = stream_->position();
    const auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    std::vector<double> late_us;
    late_us.reserve(static_cast<std::size_t>(rate * seconds) + 1);
    tr::TracePacket p;
    const Usage u0 = ReadUsage();
    server_.Start();
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      if (due - t0 >= budget) break;
      while (Clock::now() < due) {
      }
      if (spec_.swaps && i > 0 && i % kPacedSwapEvery == 0) {
        swaps_.push_back(stream_->position());
        const auto c0 = Clock::now();
        Swap(server_, s_, version_);
        swap_call_ms_.push_back(Seconds(Clock::now() - c0) * 1e3);
      }
      stream_->Next(p);
      late_us.push_back(Ns(Clock::now() - due) / 1e3);
      server_.Push(p);
    }
    const double wall = Seconds(Clock::now() - t0);
    server_.Stop();
    const Usage u1 = ReadUsage();
    lv.pushed = late_us.size();
    lv.delivered_pps = static_cast<double>(lv.pushed) / wall;
    lv.cpu_ms = u1.cpu_ms - u0.cpu_ms;
    lv.ctx_switches = u1.ctx_switches - u0.ctx_switches;

    const rt::StreamServerStats st = server_.Stats();
    accounting_ = accounting_ && AccountingHolds(st, lv.pushed);
    failed_ += st.shed.total();
    swap_wall_ms_ += st.swap_wall_ms;
    swap_applications_ += st.swaps;
    lv.batch_fill = st.batches != 0 ? static_cast<double>(st.decisions) /
                                          static_cast<double>(st.batches)
                                    : 0.0;
    for (const auto& sh : server_.Health().shards) {
      lv.ring_hwm = std::max(lv.ring_hwm, sh.ring_depth_hwm);
    }

    const auto ds = server_.TakeDecisions();
    stream_->Index(ds);
    std::vector<std::pair<std::uint64_t, double>> lat;  // (schedule index, us)
    lat.reserve(ds.size());
    for (const auto& d : ds) {
      std::uint64_t seq = 0;
      if (d.latency_ns == 0) continue;
      if (!stream_->SeqOf(d.flow, d.index, seq) || seq < base ||
          seq - base >= late_us.size()) {
        ++unresolved_;
        continue;
      }
      lat.emplace_back(seq - base, late_us[seq - base] + d.latency_ns / 1e3);
    }
    Check(ds);
    lv.samples = lat.size();
    // Slices are cut on the swap grid, so each holds the same number of
    // whole swap periods (the last one may hold fewer).
    const std::uint64_t grid = spec_.swaps ? kPacedSwapEvery : 1;
    const std::uint64_t cells = (late_us.size() + grid - 1) / grid;
    const std::uint64_t wanted =
        std::clamp<std::uint64_t>(lat.size() / kMinSliceSamples, 1, kMaxSlices);
    const std::uint64_t per_slice = (cells + wanted - 1) / wanted;
    lv.slices = static_cast<std::size_t>((cells + per_slice - 1) / per_slice);
    std::vector<std::vector<double>> slices(lv.slices);
    for (const auto& [i, us] : lat) {
      slices[i / grid / per_slice].push_back(us);
    }
    std::vector<double> p50s;
    for (const auto& slice : slices) {
      p50s.push_back(Quantile(slice, 0.50));
      lv.slice_p99_us.push_back(Quantile(slice, 0.99));
    }
    lv.p50_us = Median(p50s);
    lv.p99_us = Median(lv.slice_p99_us);
    lv.lag_p99_us = Quantile(late_us, 0.99);
    const std::size_t q = late_us.size() / 4;
    if (q > 0) {
      const double first = Median({late_us.begin(), late_us.begin() + q});
      const double last = Median({late_us.end() - q, late_us.end()});
      lv.lag_grows = last - first > kLagGrowthUs;
    }
    return lv;
  }

 private:
  static rt::StreamServerOptions Options(const Spec& spec, const Sizes& z) {
    rt::StreamServerOptions o;
    o.num_shards = kPacedShards;
    o.flows_per_shard = (TableCapacity(spec, z) + kPacedShards - 1) / kPacedShards;
    o.feature = spec.feature;
    o.multithreaded = true;
    o.telemetry.sample_every = kSampleEvery;
    o.watchdog_interval_us = 0;
    return o;
  }

  void Check(std::span<const rt::StreamDecision> ds) {
    failed_ += oracle_.Check(
        ds, [&](std::uint32_t flow) { return stream_->Ref(flow); },
        [&](const rt::StreamDecision& d) -> std::uint64_t {
          std::uint64_t seq = 0;
          if (swaps_.empty()) return 1;
          return stream_->SeqOf(d.flow, d.index, seq) ? VersionAt(swaps_, seq)
                                                       : 0;
        });
  }

  const Spec& spec_;
  const Sizes& z_;
  const Setup& s_;
  std::unique_ptr<Stream> stream_;
  Oracle& oracle_;
  rt::StreamServer server_;
  std::uint64_t version_ = 1;
  std::vector<std::uint64_t> swaps_;
  std::vector<double> swap_call_ms_;
  double swap_wall_ms_ = 0.0;
  std::uint64_t swap_applications_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t unresolved_ = 0;
  bool accounting_ = true;
};

void Print(const char* fmt, auto... args) {
  std::printf(fmt, args...);
  std::fflush(stdout);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : kSpecs) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

RunResult RunWorkload(const RunOptions& ro) {
  const Spec& spec = FindSpec(ro.workload);
  const Sizes z = SizesFor(ro.short_mode);
  RunResult res;

  // Set-up, repeated: training, compile/place/seal and trace or generator
  // set-up. The last repetition's artifacts are served.
  std::vector<double> setup_s, train_s, place_s;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Stream> stream;
  for (std::size_t rep = 0; rep < z.setup_reps; ++rep) {
    stream.reset();
    setup.reset();
    const auto t0 = Clock::now();
    setup = BuildSetup(spec, z);
    stream = MakeStream(spec, z, *setup, ro.seed);
    setup_s.push_back(Seconds(Clock::now() - t0));
    train_s.push_back(setup->train_s);
    place_s.push_back(setup->place_s);
  }
  Print("setup: median %.3f s over %zu reps; %zu model content(s), swaps %s\n",
        Median(setup_s), setup_s.size(), setup->contents.size(),
        !spec.swaps ? "off" : setup->delta ? "SwapModelDelta" : "SwapModel");

  // Untraced runs serve the paced phase for the whole of --seconds. Traced
  // runs give half of it to the closed phase, in blocks that alternate with
  // the paced levels (closed, low, closed, mid, closed, high, closed). The
  // phases serve separate copies of the stream (same seed, same flow ids),
  // so each has its own oracle.
  Oracle closed_oracle(spec.feature, OracleModels(*setup));
  Oracle paced_oracle(spec.feature, OracleModels(*setup));
  std::unique_ptr<Composition> comp;
  std::unique_ptr<ClosedPhase> closed_phase;
  if (ro.trace) {
    comp = std::make_unique<Composition>(spec, z, *setup);
    closed_phase = std::make_unique<ClosedPhase>(
        spec, z, *setup, std::move(stream), closed_oracle, *comp);
    stream = MakeStream(spec, z, *setup, ro.seed);
  }
  PacedPhase paced(spec, z, *setup, std::move(stream), paced_oracle);
  const double closed_share = ro.trace ? kTracedClosedShare : 0.0;
  const double block_s = ro.seconds * closed_share / 4.0;
  const double level_s = ro.seconds * (1.0 - closed_share) / 3.0;
  std::array<LevelOut, 3> levels;
  for (std::size_t l = 0; l < 3; ++l) {
    if (closed_phase) closed_phase->Measure(block_s);
    levels[l] = paced.Level(spec.rates[l], level_s);
  }

  // Traced layer times, ns per packet (engine and pipeline: per decision).
  ClosedOut closed;
  double table_ns = 0, extract_ns = 0, engine_ns = 0;
  double pipeline_ns = 0, parts_ns = 0, whole_ns = 0;
  if (closed_phase) {
    closed_phase->Measure(block_s);
    closed = closed_phase->Finish();
    Print("closed: %llu packets in %.3f s (%.0f pps), %llu decisions, "
          "%zu swaps, accounting %s\n",
          static_cast<unsigned long long>(closed.packets), closed.seconds,
          static_cast<double>(closed.packets) / closed.seconds,
          static_cast<unsigned long long>(closed.decisions),
          closed.swaps.size(), closed.accounting ? "ok" : "BROKEN");
    res.correct = res.correct && closed.accounting;
    res.failed += closed.failed;
    res.attempted += closed.packets;

    const Ledger& lg = comp->ledger();
    const double pkt = lg.ns_per_tick / static_cast<double>(lg.packets);
    const double dec =
        lg.ns_per_tick /
        static_cast<double>(std::max<std::uint64_t>(1, lg.decisions));
    table_ns = static_cast<double>(lg.table) * pkt;
    extract_ns = static_cast<double>(lg.extract) * pkt;
    engine_ns = static_cast<double>(lg.engine) * dec;
    pipeline_ns = static_cast<double>(lg.pipeline) * dec;
    parts_ns = static_cast<double>(lg.table + lg.extract + lg.engine) * pkt;
    whole_ns = static_cast<double>(lg.whole) * pkt;
    const bool equal =
        lg.hash == closed.hash && lg.all_decisions == closed.decisions;
    const bool sums =
        std::abs(parts_ns - whole_ns) <= kLedgerTolerance * whole_ns;
    res.correct = res.correct && equal && sums;
    Print("traced: decisions %s the server's (%llu); parts %.1f of whole %.1f "
          "ns/pkt (%s, tolerance %.0f%%)\n",
          equal ? "equal" : "DIFFER from",
          static_cast<unsigned long long>(lg.all_decisions), parts_ns,
          whole_ns, sums ? "ok" : "OUT OF TOLERANCE",
          kLedgerTolerance * 100.0);
  }

  res.threads = paced.threads();
  res.correct = res.correct && paced.accounting() && paced.unresolved() == 0;
  res.failed += paced.failed();
  double slo = 0.0;
  for (std::size_t l = 0; l < 3; ++l) {
    const LevelOut& lv = levels[l];
    res.attempted += lv.pushed;
    const bool meets = lv.p99_us <= kLatencyLimitUs && !lv.lag_grows;
    if (meets) slo = lv.delivered_pps;
    std::string slice_p99;
    for (const double v : lv.slice_p99_us) {
      char buf[32];
      std::snprintf(buf, sizeof buf, slice_p99.empty() ? "%.0f" : " %.0f", v);
      slice_p99 += buf;
    }
    Print("paced %-4s: offered %.0f pps, delivered %.0f, %zu latency samples "
          "in %zu slices, p50 %.1f us, p99 %.1f us (slices: %s), lag p99 "
          "%.1f us%s, batch fill %.1f, ring hwm %zu -> %s\n",
          kLevelNames[l], lv.rate, lv.delivered_pps, lv.samples, lv.slices,
          lv.p50_us, lv.p99_us, slice_p99.c_str(), lv.lag_p99_us,
          lv.lag_grows ? " (GROWING)" : "", lv.batch_fill, lv.ring_hwm,
          meets ? "meets limit" : "misses limit");
  }
  Print("paced: accounting %s, %llu unresolved decisions, %zu swap calls\n",
        paced.accounting() ? "ok" : "BROKEN",
        static_cast<unsigned long long>(paced.unresolved()),
        paced.swap_call_ms().size());
  for (const Oracle* o : {&closed_oracle, &paced_oracle}) {
    if (o == &closed_oracle && !closed_phase) continue;
    Print("oracle (%s): %llu decisions checked, %llu rejected, %llu restarts "
          "seen\n",
          o == &closed_oracle ? "closed" : "paced",
          static_cast<unsigned long long>(o->checked()),
          static_cast<unsigned long long>(o->rejected()),
          static_cast<unsigned long long>(o->restarts()));
    for (const auto& e : o->errors()) Print("  rejected: %s\n", e.c_str());
    res.correct = res.correct && o->rejected() == 0 && o->checked() > 0;
  }

  auto add = [&](const char* name, double v, const char* unit) {
    res.metrics.push_back({name, v, unit});
  };
  if (!ro.trace) {
    add("setup_s", Median(setup_s), "s");
    add("peak_rss_mb", ReadUsage().peak_rss_mb, "MB");
    for (std::size_t l = 0; l < 3; ++l) {
      add(("latency_p50_us." + std::string(kLevelNames[l])).c_str(),
          levels[l].p50_us, "us");
    }
    for (std::size_t l = 0; l < 3; ++l) {
      add(("latency_p99_us." + std::string(kLevelNames[l])).c_str(),
          levels[l].p99_us, "us");
    }
    add("slo_rate_pps", slo, "1/s");
    return res;
  }

  const auto& tbl = closed.stats.table;
  const double server_ns =
      closed.seconds * 1e9 / static_cast<double>(closed.packets);
  add("runtime.server.ns_per_pkt", server_ns, "ns");
  add("runtime.flow_table.ns_per_pkt", table_ns, "ns");
  add("runtime.flow_table.hit_ratio",
      static_cast<double>(tbl.hits) /
          static_cast<double>(std::max<std::uint64_t>(1, tbl.hits + tbl.misses)),
      "ratio");
  add("runtime.flow_table.mean_probe", tbl.MeanProbe(), "slots");
  add("runtime.flow_table.evictions_per_kpkt",
      static_cast<double>(tbl.evictions) * 1e3 /
          static_cast<double>(closed.packets),
      "count/kpkt");
  add("traffic.extract.ns_per_pkt", extract_ns, "ns");
  add("runtime.engine.ns_per_decision", engine_ns, "ns");
  add("dataplane.pipeline.ns_per_decision", pipeline_ns, "ns");
  add("runtime.engine.pack_ns_per_decision", engine_ns - pipeline_ns, "ns");
  add("dataplane.table_hits_per_decision",
      static_cast<double>(closed.stats.engine.table_hits) /
          static_cast<double>(
              std::max<std::uint64_t>(1, closed.stats.engine.packets)),
      "count");
  add("dataplane.index_bytes",
      static_cast<double>(
          setup->contents[0].lowered->pipeline().MatchIndexReport().bytes),
      "B");
  add("runtime.server.overhead_ns_per_pkt", server_ns - parts_ns, "ns");
  add("gen.ns_per_pkt", closed.gen_ns_per_pkt, "ns");
  add("trace.parts_over_whole", parts_ns / whole_ns, "ratio");
  add("runtime.batch_fill", levels[0].batch_fill, "decisions/batch");
  add("runtime.ring.depth_hwm", static_cast<double>(levels[2].ring_hwm),
      "count");
  add("control.swap_call_ms", Median(paced.swap_call_ms()), "ms");
  add("control.swap_gap_ms",
      paced.swap_applications() != 0
          ? paced.swap_wall_ms() /
                static_cast<double>(paced.swap_applications())
          : 0.0,
      "ms");
  add("gen.lag_p99_us", levels[2].lag_p99_us, "us");
  const double high_kpkt =
      std::max<double>(1.0, static_cast<double>(levels[2].pushed)) / 1e3;
  add("proc.cpu_ms_per_kpkt", levels[2].cpu_ms / high_kpkt, "ms/kpkt");
  add("proc.ctx_switches_per_kpkt",
      static_cast<double>(levels[2].ctx_switches) / high_kpkt,
      "count/kpkt");
  add("nn.train_s", Median(train_s), "s");
  add("compiler.place_s", Median(place_s), "s");
  return res;
}

bool OracleRejectsAlteredDecision() {
  const Spec& spec = kSpecs[0];
  const Sizes z = SizesFor(/*short_mode=*/true);
  const auto setup = BuildSetup(spec, z);
  RelapStream stream(setup->prep.dataset.flows, /*seed=*/1);
  rt::StreamServerOptions o;
  o.flows_per_shard = TableCapacity(spec, z);
  o.feature = spec.feature;
  rt::StreamServer server(setup->contents[0].lowered, o, 1);
  tr::TracePacket p;
  for (std::size_t i = 0; i < 2 * stream.lap_packets(); ++i) {
    stream.Next(p);
    server.Push(p);
  }
  server.Flush();
  std::vector<rt::StreamDecision> ds = server.TakeDecisions();
  const auto resolve = [&](std::uint32_t flow) { return stream.Ref(flow); };
  const auto v1 = [](const rt::StreamDecision&) -> std::uint64_t { return 1; };
  Oracle clean(spec.feature, OracleModels(*setup));
  const bool accepts = clean.Check(ds, resolve, v1) == 0 && clean.checked() > 0;
  const std::size_t k = ds.size() / 2;
  ds[k].predicted = static_cast<std::int32_t>(
      (ds[k].predicted + 1) % static_cast<std::int32_t>(setup->prep.num_classes));
  Oracle altered(spec.feature, OracleModels(*setup));
  const std::uint64_t rejected = altered.Check(ds, resolve, v1);
  Print("oracle self-test: true stream %s (%llu checked); altered decision "
        "%zu -> %llu rejected\n",
        accepts ? "accepted" : "REJECTED",
        static_cast<unsigned long long>(clean.checked()), k,
        static_cast<unsigned long long>(rejected));
  return accepts && rejected == 1;
}

}  // namespace perfbench
