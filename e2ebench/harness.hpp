// Shared pieces of the e2ebench harness: the workload table, metric and
// statistics helpers, the Engine-run wrapper (e2ebench.cpp) and the traced
// layer replay (replay.cpp). See NOTES.md for what each workload is for.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "data/dataset.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  const char* model;
  const char* preset;
  std::size_t train_per_class;  // 0 = the preset's
  int trainers;
  std::size_t local_epochs;
  bool parallel_exec;  // exec: parallel at threads = nproc (else serial)
  bool fedbuff_qsgd;   // serve: fedbuff + QSGD 8-bit uplink (else sync FedAvg)
  std::size_t rounds;  // global rounds per Engine run
  double accuracy_floor;
};

// fedbuff_qsgd's serve settings, shared by the Engine config and the replay.
// Staleness is unbounded (0): a trainer the host preempts for a few windows
// comes back with an update the other three have outdated, and any bound
// would reject it by scheduling luck, not by anything the code does. The
// staleness weight alpha / (1 + s) still applies to every fold.
constexpr std::size_t kFedbuffBuffer = 2;
constexpr std::size_t kFedbuffMaxStaleness = 0;
constexpr double kFedbuffAlpha = 0.6;

const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Linear-interpolated quantile of `v` (copied, sorted), q in [0, 1].
double quantile(std::vector<double> v, double q);

// The workload's synthetic dataset spec (preset plus its overrides).
of::data::DatasetSpec dataset_spec(const Workload& w);
// Training samples in one client update: the workload's IID shard times its
// local epochs (shards are equal: every dataset divides by the trainer count).
std::size_t samples_per_update(const Workload& w);

// Per-run outcome counters behind the JSON's attempted/failed fields and
// the output gates.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  // client updates sent
  std::uint64_t failed = 0;     // updates not aggregated + updates of gated runs
  void fail(const std::string& why, std::uint64_t updates);
};

// One Engine construct + run() over loopback TCP on a fresh ephemeral port.
struct EngineRun {
  of::core::RunResult result;
  double round_s = 0.0;  // Σ RoundRecord.seconds
  double setup_s = 0.0;  // compose + construct + run() wall time - round_s
  std::uint64_t attempted = 0;
  std::uint64_t aggregated = 0;
};

// Writes the workload's generated config (port left 0: every run overrides
// it with an ephemeral port) and returns its path.
std::string write_config(const Workload& w, std::uint64_t seed, const std::string& out_dir);
// `obs_full` layers the obs: full group on top (exports under `out_dir`).
EngineRun run_engine(const Workload& w, const std::string& config_path, bool obs_full,
                     const std::string& out_dir);
// Output gates shared by both modes: round count, accuracy floor and (sync
// workloads) final-model bytes equal to `reference`. Records failures.
void gate_run(const Workload& w, const EngineRun& run, const of::tensor::Bytes& reference,
              Outcome& outcome);

// --trace 1: per-layer metrics (spans written to `out_dir`).
std::vector<Metric> run_traced(const Workload& w, std::uint64_t seed, double seconds,
                               const std::string& out_dir, Outcome& outcome);

}  // namespace e2e
