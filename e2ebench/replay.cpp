// Traced run (--trace 1): per-layer numbers for one workload, at its shapes.
//
//   1. build    config compose, dataset synthesis + partition, model build
//   2. engine   untraced and `obs: full` Engine runs, alternated: obs overhead,
//               the obs phase columns, and the comm/pool/serve counters of
//               RunResult
//   3. replay   the workload's client rounds driven by hand over real TCP
//               through the public functions, in round order: apply_global,
//               local_train, encode, send, gather (or any-source recv),
//               aggregate (or offer + drain), broadcast (or per-invite pack
//               + send); then TCP ping-pongs and bare star rounds
//   4. micro    single calls into exec, tensor, nn, core, compression, serve
//
// Every timed call is one span (name, start, end, parent, round, thread),
// kept in memory and written to <out>/spans-<workload>-seed<n>.json at the
// end. The metrics are computed from the spans, so the file is the evidence
// behind every per-layer number. Spans live only here — nothing inside the
// program is instrumented.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "algorithms/algorithm.hpp"
#include "comm/tcp.hpp"
#include "compression/quantize.hpp"
#include "config/compose.hpp"
#include "core/payload.hpp"
#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "data/partition.hpp"
#include "exec/pool.hpp"
#include "harness.hpp"
#include "net_util.hpp"
#include "nn/optimizer.hpp"
#include "nn/zoo.hpp"
#include "serve/buffer.hpp"
#include "serve/sampler.hpp"

namespace e2e {
namespace {

using of::tensor::Bytes;
using of::tensor::Tensor;

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;  // "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t round = 0;
  int thread = 0;
  std::size_t calls = 1;  // micro-op batches cover several calls
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

// One thread's spans. Not thread-safe: every thread owns its own log, and
// the logs are merged after the threads are joined.
class SpanLog {
 public:
  SpanLog(int thread, Clock::time_point epoch, std::atomic<std::uint64_t>& ids)
      : thread_(thread), epoch_(epoch), ids_(&ids) {}

  // RAII span; nests under the innermost open span of the same log.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t round, std::size_t calls = 1)
        : log_(log), index_(log.spans.size()) {
      Span s;
      s.name = std::move(name);
      s.id = log.ids_->fetch_add(1) + 1;
      s.parent = log.open_.empty() ? 0 : log.spans[log.open_.back()].id;
      s.round = round;
      s.thread = log.thread_;
      s.calls = calls;
      s.start_ns = log.now_ns();
      log.spans.push_back(std::move(s));
      log.open_.push_back(index_);
    }
    ~Scope() {
      log_.spans[index_].end_ns = log_.now_ns();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return log_.spans[index_].id; }
    // Cross-thread causality: a client round is caused by the server round
    // whose broadcast it received.
    void set_parent(std::uint64_t parent) { log_.spans[index_].parent = parent; }

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  std::vector<Span> spans;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  int thread_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t>* ids_;
  std::vector<std::size_t> open_;
};

using Scope = SpanLog::Scope;

// Median per-call µs of the spans named `name`.
double median_us(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> v;
  for (const auto& s : spans)
    if (s.name == name) v.push_back(s.us() / static_cast<double>(s.calls));
  return quantile(v, 0.5);
}

// Time `fn` until `budget_s` has passed and at least 5 spans exist. Three
// untimed warm-up calls size the spans to about 1 ms of calls each, so the
// clock reads stay out of sub-microsecond calls.
template <typename F>
void time_calls(SpanLog& log, const std::string& name, double budget_s, F&& fn) {
  double one = 1.0;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    fn();
    one = std::min(one, seconds_since(t));
  }
  const auto per_span = static_cast<std::size_t>(std::clamp(1e-3 / one, 1.0, 1e6));
  const auto t0 = Clock::now();
  for (std::size_t n = 0; n < 5 || seconds_since(t0) < budget_s; ++n) {
    Scope s(log, name, 0, per_span);
    for (std::size_t i = 0; i < per_span; ++i) fn();
  }
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"round\": %llu, \"calls\": %zu}}",
                  i ? ",\n" : "", s.name.c_str(), s.layer().c_str(), s.thread,
                  static_cast<double>(s.start_ns) * 1e-3, s.us(),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.round), s.calls);
    f << buf;
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

// --- the workload's pieces, built the way Engine::build_setups builds them --

struct Trainer {
  of::nn::Model model;
  std::unique_ptr<of::algorithms::Algorithm> algo;
  std::unique_ptr<of::nn::SGD> optimizer;
  std::unique_ptr<of::data::DataLoader> loader;
  std::unique_ptr<of::compression::Compressor> compressor;
  of::tensor::Rng rng{1};
  of::algorithms::TrainContext ctx;
  of::core::FramePool pool;
  Bytes frame;
  int rank = 1;
};

struct Federation {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  of::config::ConfigNode algo_cfg;
  of::data::TrainTest data;
  of::data::PartitionIndices parts;
  std::vector<std::unique_ptr<Trainer>> trainers;
  std::unique_ptr<of::compression::Compressor> decompressor;  // aggregator side
  std::unique_ptr<of::algorithms::Algorithm> server_algo;
  of::algorithms::ServerState state;
  of::core::FramePool pool;
};

std::unique_ptr<of::compression::Compressor> make_codec(const Workload& w,
                                                        std::uint64_t seed) {
  if (!w.fedbuff_qsgd) return nullptr;
  return std::make_unique<of::compression::QSGD>(8, seed);
}

void build_trainer(Federation& f, int rank) {
  const Workload& w = *f.w;
  auto t = std::make_unique<Trainer>();
  const std::uint64_t node_seed = f.seed + 1000 + static_cast<std::uint64_t>(rank);
  t->rank = rank;
  t->model = of::nn::zoo::make_model(w.model, f.data.train.dim(), f.data.train.num_classes(),
                                     f.seed);
  t->algo = of::algorithms::make_algorithm(std::string("FedAvg"));
  t->optimizer = std::make_unique<of::nn::SGD>(t->model.parameters(), 0.1f, 0.9f, 1e-4f);
  t->loader = std::make_unique<of::data::DataLoader>(
      f.data.train, f.parts[static_cast<std::size_t>(rank - 1)], 32, true, node_seed + 7);
  t->compressor = make_codec(w, node_seed + 77);
  t->rng = of::tensor::Rng(node_seed);
  t->ctx.model = &t->model;
  t->ctx.optimizer = t->optimizer.get();
  t->ctx.loader = t->loader.get();
  t->ctx.client_id = rank - 1;
  t->ctx.num_clients = w.trainers;
  t->ctx.local_epochs = w.local_epochs;
  t->ctx.rng = &t->rng;
  t->ctx.params = f.algo_cfg;
  f.trainers.push_back(std::move(t));
}

// --- replay protocol --------------------------------------------------------

constexpr int kTagDown = 901;  // fedbuff invites / stop
constexpr int kTagUp = 902;    // fedbuff updates
constexpr int kTagPing = 903;
constexpr std::size_t kRttSmall = 300;
constexpr std::size_t kRttModel = 40;
constexpr std::size_t kStarRounds = 30;
constexpr std::size_t kMaxReplayRounds = 200;  // bounds the span file

bool is_stop(const Bytes& b) { return b.size() == 1; }
const Bytes kStop(1, 0xFF);

// Trainer side of one replayed round. Returns false on the stop marker.
bool trainer_round(Trainer& t, of::comm::Communicator& c, SpanLog& log, std::size_t round,
                   bool fedbuff, const std::atomic<std::uint64_t>& server_round_span) {
  Scope root(log, "client.round", round);
  Bytes g;
  {
    Scope s(log, "wait.recv", round);
    if (fedbuff)
      g = c.recv_bytes(0, kTagDown);
    else
      c.broadcast_bytes(g, 0);
  }
  if (is_stop(g)) return false;
  if (!fedbuff) root.set_parent(server_round_span.load());
  std::vector<Tensor> global;
  {
    Scope s(log, "core.unpack", round);
    global = of::core::unpack_tensors(g);
  }
  auto& algo = *t.algo;
  t.ctx.round = round;
  if (round == 0) algo.on_train_start(t.ctx);
  {
    Scope s(log, "algorithms.apply_global", round);
    algo.apply_global(t.ctx, global);
  }
  algo.on_round_start(t.ctx);
  {
    Scope s(log, "algorithms.local_train", round);
    (void)algo.local_train(t.ctx);
  }
  std::vector<Tensor> payload;
  {
    Scope s(log, "algorithms.client_update", round);
    payload = algo.client_update(t.ctx);
    // The serving tier ships the delta against the invite's snapshot.
    if (fedbuff)
      for (std::size_t i = 0; i < payload.size(); ++i) payload[i].sub_(global[i]);
  }
  algo.on_round_end(t.ctx);
  if (t.compressor) t.compressor->set_stream(round, static_cast<std::uint64_t>(t.rank - 1));
  {
    Scope s(log, "core.encode", round);
    // IID shards are equal, so the weighted-mean pre-scale is exactly 1.
    of::core::encode_update_into(payload, 1.0, {t.compressor.get(), nullptr}, t.rank - 1,
                                 t.ctx.num_clients, t.pool, t.frame);
  }
  {
    Scope s(log, "comm.send", round);
    if (fedbuff)
      c.send_bytes(0, kTagUp, t.frame);
    else
      (void)c.gather_bytes(t.frame, 0);
  }
  return true;
}

// Scripted comm micro phase, mirrored on both ends: ping-pongs with rank 1,
// then bare star rounds with the whole cohort.
void trainer_comm_micro(Trainer& t, of::comm::Communicator& c) {
  if (t.rank == 1)
    for (std::size_t n = 0; n < kRttSmall + kRttModel; ++n)
      c.send_bytes(0, kTagPing, c.recv_bytes(0, kTagPing));
  for (std::size_t n = 0; n < kStarRounds; ++n) {
    Bytes g;
    c.broadcast_bytes(g, 0);
    (void)c.gather_bytes(t.frame, 0);
  }
}

void server_comm_micro(of::comm::Communicator& c, SpanLog& log, const Bytes& model) {
  const Bytes small(64, 0x5A);
  for (std::size_t n = 0; n < kRttSmall + kRttModel; ++n) {
    const bool big = n >= kRttSmall;
    Scope s(log, big ? "comm.rtt_model" : "comm.rtt_small", n);
    c.send_bytes(1, kTagPing, big ? model : small);
    (void)c.recv_bytes(1, kTagPing);
  }
  for (std::size_t n = 0; n < kStarRounds; ++n) {
    Scope s(log, "comm.star_round", n);
    Bytes g = model;
    c.broadcast_bytes(g, 0);
    (void)c.gather_bytes({}, 0);
  }
}

struct ReplayStats {
  std::size_t rounds = 0;
  std::uint64_t updates = 0;
  std::uint64_t rejected = 0;
  bool finite = true;
};

// Sync FedAvg round: pack, broadcast, gather, mean, server_update.
void server_sync(Federation& f, of::comm::Communicator& c, SpanLog& log, double budget_s,
                 std::atomic<std::uint64_t>& round_span, ReplayStats& st) {
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < kMaxReplayRounds && (r < 3 || seconds_since(t0) < budget_s);
       ++r) {
    Scope root(log, "round", r);
    round_span.store(root.id());
    Bytes g;
    {
      Scope s(log, "core.pack_model", r);
      g = of::core::pack_tensors(f.state.global);
    }
    {
      Scope s(log, "comm.broadcast", r);
      c.broadcast_bytes(g, 0);
    }
    std::vector<Bytes> frames;
    {
      Scope s(log, "wait.gather", r);
      frames = c.gather_bytes({}, 0);
    }
    frames.erase(frames.begin());
    std::vector<Tensor> mean;
    {
      Scope s(log, "core.aggregate", r);
      mean = of::core::mean_updates(frames, f.decompressor.get(), nullptr, &f.pool);
    }
    {
      Scope s(log, "algorithms.server_update", r);
      f.state.round = r;
      f.state.global = f.server_algo->server_update(f.state, mean);
    }
    st.rounds = r + 1;
    st.updates += frames.size();
  }
  Bytes stop = kStop;
  c.broadcast_bytes(stop, 0);
}

// FedBuff: per-invite pack + send, any-source recv, staleness-weighted
// offer, drain every `buffer_size` accepted updates.
void server_fedbuff(Federation& f, of::comm::Communicator& c, SpanLog& log, double budget_s,
                    ReplayStats& st) {
  const int k = f.w->trainers;
  of::serve::StalenessBuffer buffer(f.pool, f.decompressor.get(), kFedbuffBuffer,
                                          kFedbuffMaxStaleness, kFedbuffAlpha);
  std::uint64_t version = 0;
  std::vector<std::uint64_t> invited(static_cast<std::size_t>(k) + 1, 0);
  int outstanding = 0;
  auto invite = [&](int dst, std::size_t round) {
    Bytes packed;
    {
      Scope s(log, "core.pack_model", round);
      packed = of::core::pack_tensors(f.state.global);
    }
    Scope s(log, "comm.send", round);
    c.send_bytes(dst, kTagDown, packed);
    invited[static_cast<std::size_t>(dst)] = version;
    ++outstanding;
  };
  for (int r = 1; r <= k; ++r) invite(r, 0);
  const auto t0 = Clock::now();
  bool more = true;
  while (outstanding > 0) {
    const std::size_t round = static_cast<std::size_t>(version);
    Scope root(log, "round", round);
    std::pair<int, Bytes> got;
    {
      Scope s(log, "wait.recv", round);
      got = c.recv_bytes_any(kTagUp);
    }
    --outstanding;
    ++st.updates;
    const int src = got.first;
    const std::size_t staleness =
        static_cast<std::size_t>(version - invited[static_cast<std::size_t>(src)]);
    of::serve::StalenessBuffer::Admission adm;
    {
      Scope s(log, "serve.offer", round);
      adm = buffer.offer(got.second, staleness);
    }
    if (adm != of::serve::StalenessBuffer::Admission::Accepted) ++st.rejected;
    if (buffer.ready()) {
      Scope s(log, "serve.drain", round);
      const auto mean = buffer.drain();
      for (std::size_t i = 0; i < mean.size(); ++i) f.state.global[i].add_scaled_(mean[i], 1.0f);
      ++version;
    }
    more = more && version < kMaxReplayRounds &&
           (version < 3 || seconds_since(t0) < budget_s);
    if (more) invite(src, round);
  }
  st.rounds = static_cast<std::size_t>(version);
  for (int r = 1; r <= k; ++r) c.send_bytes(r, kTagDown, kStop);
}

// Runs the replay and the comm micro phase; returns every thread's spans.
std::vector<Span> replay(Federation& f, double budget_s, Clock::time_point epoch,
                         std::atomic<std::uint64_t>& ids, ReplayStats& st) {
  const Workload& w = *f.w;
  const std::uint16_t port = of::testutil::ephemeral_port();
  if (port == 0) throw std::runtime_error("no ephemeral port available for the replay");
  of::exec::Pool::global().configure(w.parallel_exec ? 0 : 1, 4096);

  std::atomic<std::uint64_t> round_span{0};
  std::vector<SpanLog> logs;
  for (int r = 0; r <= w.trainers; ++r) logs.emplace_back(r, epoch, ids);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(w.trainers) + 1);
  std::vector<std::thread> threads;
  for (int r = 1; r <= w.trainers; ++r)
    threads.emplace_back([&, r] {
      try {
        Trainer& t = *f.trainers[static_cast<std::size_t>(r - 1)];
        auto c = of::comm::TcpCommunicator::make_client("127.0.0.1", port, r, w.trainers + 1);
        SpanLog& log = logs[static_cast<std::size_t>(r)];
        for (std::size_t round = 0;
             trainer_round(t, *c, log, round, w.fedbuff_qsgd, round_span); ++round) {
        }
        trainer_comm_micro(t, *c);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  try {
    auto c = of::comm::TcpCommunicator::make_server(port, w.trainers + 1);
    if (w.fedbuff_qsgd)
      server_fedbuff(f, *c, logs[0], budget_s, st);
    else
      server_sync(f, *c, logs[0], budget_s, round_span, st);
    server_comm_micro(*c, logs[0], of::core::pack_tensors(f.state.global));
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  for (const auto& t : f.state.global)
    for (std::size_t i = 0; i < t.numel(); ++i)
      if (!std::isfinite(t[i])) st.finite = false;

  std::vector<Span> all;
  for (auto& l : logs) all.insert(all.end(), l.spans.begin(), l.spans.end());
  return all;
}

// --- metrics from spans --------------------------------------------------------

// Σ µs of the spans named in `names`, on thread `thread` (-1 = any).
double sum_us(const std::vector<Span>& spans, std::initializer_list<const char*> names,
              int thread = -1) {
  double total = 0.0;
  for (const auto& s : spans)
    for (const char* n : names)
      if (s.name == n && (thread < 0 || s.thread == thread)) total += s.us();
  return total;
}

// Self time: a span's duration minus the part its direct children cover.
// Cross-thread children (a client round under the server round whose
// broadcast it received) run beside their parent, so they are not carved out.
std::map<std::string, double> self_us_by_layer(const std::vector<Span>& spans) {
  std::map<std::uint64_t, int> thread_of;
  for (const auto& s : spans) thread_of[s.id] = s.thread;
  std::map<std::uint64_t, double> child_us;
  for (const auto& s : spans) {
    const auto it = thread_of.find(s.parent);
    if (it != thread_of.end() && it->second == s.thread) child_us[s.parent] += s.us();
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    const auto it = child_us.find(s.id);
    out[s.layer()] += s.us() - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace

std::vector<Metric> run_traced(const Workload& w, std::uint64_t seed, double seconds,
                               const std::string& out_dir, Outcome& outcome) {
  const auto epoch = Clock::now();
  std::atomic<std::uint64_t> ids{0};
  SpanLog main_log(0, epoch, ids);
  std::vector<Metric> m;

  // 1. build steps ------------------------------------------------------------
  const std::string config_path = write_config(w, seed, out_dir);
  Federation f;
  f.w = &w;
  f.seed = seed;
  for (int i = 0; i < 5; ++i) {
    Scope s(main_log, "config.compose", 0);
    f.algo_cfg = of::config::compose(config_path).at("algorithm");
  }
  const auto spec = dataset_spec(w);
  for (int i = 0; i < 3; ++i) {
    Scope s(main_log, "data.build", 0);
    f.data = of::data::make_synthetic(spec, seed);
    f.parts = of::data::make_partition("iid", f.data.train,
                                       static_cast<std::size_t>(w.trainers), 0.5, seed + 1);
  }
  for (int i = 0; i < 5; ++i) {
    Scope s(main_log, "model.build", 0);
    (void)of::nn::zoo::make_model(w.model, spec.dim, spec.classes, seed);
  }
  m.push_back({"config.compose_ms", median_us(main_log.spans, "config.compose") * 1e-3, "ms"});
  m.push_back({"data.build_ms", median_us(main_log.spans, "data.build") * 1e-3, "ms"});
  m.push_back({"model.build_ms", median_us(main_log.spans, "model.build") * 1e-3, "ms"});

  // 2. Engine pairs: untraced vs obs: full -------------------------------------
  std::vector<double> plain_ms, traced_ms;
  double phase[7] = {};
  double hit_rate = 0.0, staleness = 0.0;
  std::uint64_t msgs = 0, rounds = 0, attempted = 0, aggregated = 0, runs = 0;
  Bytes reference;
  const auto t_engine = Clock::now();
  for (int pair = 0; pair < 2 || seconds_since(t_engine) < 0.4 * seconds; ++pair) {
    for (const bool traced : {false, true}) {
      Scope s(main_log, traced ? "engine.traced_run" : "engine.run", 0);
      const EngineRun run = run_engine(w, config_path, traced, out_dir);
      if (reference.empty()) reference = run.result.final_model_bytes;
      gate_run(w, run, reference, outcome);
      for (const auto& r : run.result.rounds) {
        (traced ? traced_ms : plain_ms).push_back(r.seconds * 1e3);
        if (!traced) continue;
        const double p[7] = {r.train_s, r.encode_s, r.send_s, r.recv_s,
                             r.decode_s, r.aggregate_s, r.broadcast_s};
        for (int i = 0; i < 7; ++i) phase[i] += p[i];
      }
      if (traced) continue;
      ++runs;
      rounds += run.result.rounds.size();
      hit_rate += run.result.pool_hit_rate;
      msgs += run.result.root_comm.messages_sent + run.result.root_comm.messages_received;
      attempted += run.attempted;
      aggregated += run.aggregated;
      if (w.fedbuff_qsgd) staleness += run.result.rounds.back().mean_staleness;
    }
  }
  const double plain_p50 = quantile(plain_ms, 0.5);
  m.push_back({"obs.overhead_share", (quantile(traced_ms, 0.5) - plain_p50) / plain_p50,
               "ratio"});
  static const char* kPhases[7] = {"train", "encode", "send", "recv",
                                   "decode", "aggregate", "broadcast"};
  double phase_total = 0.0;
  for (double p : phase) phase_total += p;
  for (int i = 0; i < 7; ++i)
    m.push_back({std::string("obs.phase.") + kPhases[i] + "_share",
                 phase_total > 0 ? phase[i] / phase_total : 0.0, "ratio"});
  m.push_back({"pool.hit_rate", hit_rate / static_cast<double>(runs), "ratio"});
  m.push_back({"comm.msgs_per_round", static_cast<double>(msgs) / static_cast<double>(rounds),
               "count"});
  m.push_back({"serve.accept_share",
               static_cast<double>(aggregated) / static_cast<double>(attempted), "ratio"});
  m.push_back({"serve.mean_staleness", staleness / static_cast<double>(runs), "count"});

  // 3. replay -------------------------------------------------------------------
  for (int r = 1; r <= w.trainers; ++r) build_trainer(f, r);
  f.decompressor = make_codec(w, seed + 77);
  f.server_algo = of::algorithms::make_algorithm(std::string("FedAvg"));
  of::nn::Model reference_model =
      of::nn::zoo::make_model(w.model, spec.dim, spec.classes, seed);
  f.state.params = f.algo_cfg;
  f.state.global = f.server_algo->initial_global(reference_model);
  ReplayStats st;
  std::vector<Span> spans = replay(f, 0.3 * seconds, epoch, ids, st);
  outcome.attempted += st.updates;
  outcome.failed += st.rejected;
  if (!st.finite) outcome.fail(std::string(w.name) + ": replayed global model is not finite", 0);
  const double rounds_d = static_cast<double>(std::max<std::size_t>(st.rounds, 1));

  m.push_back({"train.client_round_ms", median_us(spans, "algorithms.local_train") * 1e-3,
               "ms"});
  const double replay_phase[7] = {
      sum_us(spans, {"algorithms.local_train"}),
      sum_us(spans, {"core.encode"}),
      sum_us(spans, {"comm.send"}),
      sum_us(spans, {"wait.recv", "wait.gather"}),
      sum_us(spans, {"core.unpack"}),
      sum_us(spans, {"core.aggregate", "algorithms.server_update", "serve.drain"}),
      sum_us(spans, {"comm.broadcast"})};
  double replay_total = 0.0;
  for (double p : replay_phase) replay_total += p;
  for (int i = 0; i < 7; ++i)
    m.push_back({std::string("replay.phase.") + kPhases[i] + "_share",
                 replay_phase[i] / replay_total, "ratio"});
  {
    // Self time per layer over the replayed rounds only (not the comm micro
    // phase that follows them).
    std::vector<Span> rounds_only;
    for (const auto& s : spans)
      if (s.name.rfind("comm.rtt", 0) != 0 && s.name != "comm.star_round")
        rounds_only.push_back(s);
    const auto self = self_us_by_layer(rounds_only);
    for (const char* layer : {"algorithms", "core", "comm", "serve", "wait"}) {
      const auto it = self.find(layer);
      m.push_back({std::string("replay.self_ms.") + layer,
                   (it == self.end() ? 0.0 : it->second) * 1e-3 / rounds_d, "ms"});
    }
  }
  // RunResult.root_comm.seconds_in_comm stays 0 over TCP (the star
  // collectives do not account their time), so the blocked share comes from
  // the replay: the server's time in blocking receives over its round time.
  m.push_back({"comm.blocked_share",
               sum_us(spans, {"wait.gather", "wait.recv"}, 0) / sum_us(spans, {"round"}, 0),
               "ratio"});
  m.push_back({"tcp.rtt_small_us", median_us(spans, "comm.rtt_small"), "us"});
  m.push_back({"tcp.rtt_model_us", median_us(spans, "comm.rtt_model"), "us"});
  m.push_back({"star.round_us", median_us(spans, "comm.star_round"), "us"});

  // 4. micro-ops ----------------------------------------------------------------
  const double budget = 0.02 * seconds;
  Trainer& t0 = *f.trainers[0];
  std::vector<Tensor> payload = t0.algo->client_update(t0.ctx);
  {
    // One SGD step at batch 32: local_train over a one-batch loader.
    std::vector<std::size_t> batch(f.parts[0].begin(), f.parts[0].begin() + 32);
    of::data::DataLoader one(f.data.train, batch, 32, false, seed);
    t0.ctx.loader = &one;
    t0.ctx.local_epochs = 1;
    time_calls(main_log, "nn.train_step", budget, [&] { (void)t0.algo->local_train(t0.ctx); });
    t0.ctx.loader = t0.loader.get();
  }
  m.push_back({"train.step_us", median_us(main_log.spans, "nn.train_step"), "us"});

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  {
    // The model's largest layer: x[32 × in] · W[in × out].
    std::size_t in = 1, out = 1;
    for (auto* p : t0.model.parameters())
      if (p->value.ndim() == 2 && p->value.numel() > in * out) {
        in = p->value.size(0);
        out = p->value.size(1);
      }
    of::tensor::Rng rng(seed);
    const Tensor x = Tensor::randn({32, in}, rng, 0.0f, 1.0f);
    const Tensor wt = Tensor::randn({in, out}, rng, 0.0f, 1.0f);
    auto& pool = of::exec::Pool::global();
    pool.configure(1, 4096);
    time_calls(main_log, "exec.matmul_t1", budget, [&] { (void)x.matmul(wt); });
    pool.configure(nproc, 4096);
    time_calls(main_log, "exec.matmul_tn", budget, [&] { (void)x.matmul(wt); });
    time_calls(main_log, "exec.region", budget,
               [&] { pool.parallel_for(nproc, 1, [](std::size_t, std::size_t) {}); });
  }
  m.push_back({"exec.region_us", median_us(main_log.spans, "exec.region"), "us"});
  m.push_back({"exec.matmul_us.t1", median_us(main_log.spans, "exec.matmul_t1"), "us"});
  m.push_back({"exec.matmul_us.tn", median_us(main_log.spans, "exec.matmul_tn"), "us"});
  of::exec::Pool::global().configure(w.parallel_exec ? 0 : 1, 4096);

  {
    of::core::FramePool pool;
    Bytes frame;
    auto codec = make_codec(w, seed + 77);
    time_calls(main_log, "core.encode", budget, [&] {
      if (codec) codec->set_stream(0, 0);
      of::core::encode_update_into(payload, 1.0, {codec.get(), nullptr}, 0, w.trainers, pool,
                                   frame);
    });
    std::vector<Tensor> decoded;
    time_calls(main_log, "core.decode", budget,
               [&] { decoded = of::core::decode_update(frame, f.decompressor.get()); });
    // Output check: a plain frame decodes to the payload bit for bit; a QSGD
    // frame to within its quantization error.
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < payload.size(); ++i)
      for (std::size_t j = 0; j < payload[i].numel(); ++j) {
        const double d = static_cast<double>(decoded[i][j]) - payload[i][j];
        err += d * d;
        norm += static_cast<double>(payload[i][j]) * payload[i][j];
      }
    const double rel = std::sqrt(err / std::max(norm, 1e-30));
    // QSGD's variance bound for 2048-element buckets at 127 levels
    // (Alistarh et al.): E‖Q(v) − v‖² ≤ min(d/s², √d/s)·‖v‖².
    const double qsgd_bound = std::sqrt(std::min(2048.0 / (127.0 * 127.0),
                                                 std::sqrt(2048.0) / 127.0));
    if (!(codec ? rel <= qsgd_bound : err == 0.0))
      outcome.fail(std::string(w.name) + ": decode(encode(update)) relative error " +
                       std::to_string(rel),
                   0);
    const std::vector<Bytes> cohort(static_cast<std::size_t>(w.trainers), frame);
    if (w.fedbuff_qsgd) {
      of::core::StreamingSum sum(pool, f.decompressor.get());
      time_calls(main_log, "core.aggregate", budget, [&] { sum.add(frame, 0.3); });
    } else {
      time_calls(main_log, "core.aggregate", budget, [&] {
        (void)of::core::mean_updates(cohort, nullptr, nullptr, &pool);
      });
    }
    time_calls(main_log, "core.pack_model", budget,
               [&] { (void)of::core::pack_tensors(f.state.global); });

    // Offers fold into a buffer that never fills; each drain span follows
    // the workload's buffer_size (2) untimed offers.
    of::serve::StalenessBuffer open_buffer(pool, f.decompressor.get(), 1u << 30,
                                           kFedbuffMaxStaleness, kFedbuffAlpha);
    time_calls(main_log, "serve.offer", budget, [&] { (void)open_buffer.offer(frame, 1); });
    of::serve::StalenessBuffer buffer(pool, f.decompressor.get(), kFedbuffBuffer,
                                      kFedbuffMaxStaleness, kFedbuffAlpha);
    const auto t_serve = Clock::now();
    for (std::size_t n = 0; n < 5 || (n < 1000 && seconds_since(t_serve) < budget); ++n) {
      (void)buffer.offer(frame, 1);
      (void)buffer.offer(frame, 1);
      Scope s(main_log, "serve.drain", n);
      (void)buffer.drain();
    }
    of::serve::ClientSampler sampler(seed);
    std::vector<int> alive;
    for (int r = 1; r <= w.trainers; ++r) alive.push_back(r);
    std::uint64_t window = 0;
    time_calls(main_log, "serve.sample", budget,
               [&] { (void)sampler.sample(window++, alive, 1.0); });
  }
  m.push_back({"payload.encode_us", median_us(main_log.spans, "core.encode"), "us"});
  m.push_back({"payload.decode_us", median_us(main_log.spans, "core.decode"), "us"});
  m.push_back({"payload.aggregate_us", median_us(main_log.spans, "core.aggregate"), "us"});
  m.push_back({"payload.pack_model_us", median_us(main_log.spans, "core.pack_model"), "us"});
  m.push_back({"serve.offer_us", median_us(main_log.spans, "serve.offer"), "us"});
  m.push_back({"serve.drain_us", median_us(main_log.spans, "serve.drain"), "us"});
  m.push_back({"serve.sample_us", median_us(main_log.spans, "serve.sample"), "us"});

  {
    of::compression::QSGD q(8, seed);
    of::compression::Compressed c;
    time_calls(main_log, "compression.qsgd_compress", budget, [&] {
      q.set_stream(0, 0);
      (void)q.compress_scaled(payload, 1.0, c);
    });
    Tensor flat({c.original_numel});
    time_calls(main_log, "compression.qsgd_decompress", budget,
               [&] { q.decompress(c, flat.span()); });
    m.push_back({"qsgd.compress_us", median_us(main_log.spans, "compression.qsgd_compress"),
                 "us"});
    m.push_back({"qsgd.decompress_us",
                 median_us(main_log.spans, "compression.qsgd_decompress"), "us"});
    m.push_back({"qsgd.ratio", c.achieved_ratio(), "ratio"});
  }

  spans.insert(spans.end(), main_log.spans.begin(), main_log.spans.end());
  const std::string path =
      out_dir + "/spans-" + w.name + "-seed" + std::to_string(seed) + ".json";
  write_spans(path, spans);
  std::printf("# spans: %zu written to %s (%zu replayed rounds)\n", spans.size(), path.c_str(),
              st.rounds);
  {
    const auto self = self_us_by_layer(spans);
    for (const auto& [layer, us] : self)
      std::printf("# self time %-12s %12.3f ms\n", layer.c_str(), us * 1e-3);
  }
  return m;
}

}  // namespace e2e
