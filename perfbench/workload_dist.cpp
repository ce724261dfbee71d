// dist_hubbard20: SPSA VQE with HardwareEfficientAnsatz(20, 6) (280
// parameters) on a half-filled 10-site Hubbard chain (U/t = 4, 67 terms),
// evaluated by DistributedExecutor over a 4-rank SimComm. One operation is
// one energy evaluation; SPSA runs of one iteration (four evaluations)
// repeat from the same seeded start until the time is up.
//
// Why: the 16 MiB state splits into 4 MiB rank shards, twice the per-core
// L2, so this is the only workload that moves comm, layout planning and
// the large-state kernel path. Every evaluation runs the same circuit
// shape, so its comm traffic must repeat exactly.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "analyze/properties.hpp"
#include "chem/jordan_wigner.hpp"
#include "chem/molecules.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dist/dist_state_vector.hpp"
#include "ir/passes/layout.hpp"
#include "stats.hpp"
#include "vqe/dist_executor.hpp"
#include "vqe/vqe.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace vqsim;

constexpr int kQubits = 20;
constexpr int kLayers = 6;
constexpr int kRanks = 4;

struct DistInputs {
  PauliSum hamiltonian;
  HardwareEfficientAnsatz ansatz{kQubits, kLayers, kQubits / 2};
  SimComm comm{kRanks};
  std::unique_ptr<DistributedExecutor> executor;
  std::vector<double> theta0;
};

std::unique_ptr<DistInputs> build_inputs(std::uint64_t seed) {
  auto in = std::make_unique<DistInputs>();
  in->hamiltonian = jordan_wigner(molecular_hamiltonian(
      hubbard_chain(kQubits / 2, kQubits / 2, /*t=*/1.0, /*u=*/4.0)));
  Rng rng(seed);
  in->theta0.resize(in->ansatz.num_parameters());
  for (double& t : in->theta0) t = rng.uniform(-0.1, 0.1);
  in->executor = std::make_unique<DistributedExecutor>(
      in->ansatz, in->hamiltonian, &in->comm);
  return in;
}

bool operator==(const CommStats& a, const CommStats& b) {
  return a.point_to_point_messages == b.point_to_point_messages &&
         a.amplitudes_exchanged == b.amplitudes_exchanged &&
         a.allreduces == b.allreduces;
}

/// Times each evaluation of the library executor and records its traffic.
class TimedEvaluator final : public EnergyEvaluator {
 public:
  explicit TimedEvaluator(DistributedExecutor& inner) : inner_(inner) {}

  double evaluate(std::span<const double> theta) override {
    const CommStats before = inner_.comm_stats();
    const vqsim::WallTimer clock;
    const double e = inner_.evaluate(theta);
    ms.push_back(clock.milliseconds());
    const CommStats after = inner_.comm_stats();
    traffic.push_back(
        {after.point_to_point_messages - before.point_to_point_messages,
         after.amplitudes_exchanged - before.amplitudes_exchanged,
         after.allreduces - before.allreduces});
    return e;
  }
  const ExecutorStats& stats() const override { return inner_.stats(); }

  std::vector<double> ms;
  std::vector<CommStats> traffic;

 private:
  DistributedExecutor& inner_;
};

/// DistributedExecutor::evaluate, call by call, with a span around each
/// layer call. Spans are recorded only while `ledger` is set.
class ReplicaExecutor final : public EnergyEvaluator {
 public:
  ReplicaExecutor(const Ansatz& ansatz, const PauliSum& observable,
                  SimComm* comm)
      : ansatz_(ansatz), observable_(observable), state_(kQubits, comm) {}

  double evaluate(std::span<const double> theta) override {
    ++stats_.energy_evaluations;
    const Circuit circuit = spanned(ledger, "ir.circuit_build",
                                    [&] { return ansatz_.circuit(theta); });
    std::vector<int> seed = spanned(ledger, "analyze.infer", [&] {
      analyze::PropertyOptions popts;
      popts.dataflow = false;
      popts.lint = false;
      return analyze::interaction_seeded_layout(
          analyze::infer_properties(circuit, popts), state_.num_qubits(),
          state_.local_qubits());
    });
    const LayoutPlan plan = spanned(ledger, "ir.layout_plan", [&] {
      return plan_layout(circuit, state_.num_qubits(), state_.local_qubits(),
                         seed);
    });
    spanned(ledger, "dist.apply", [&] {
      state_.reset();
      state_.adopt_layout(std::move(seed));
      state_.apply_circuit(circuit, plan);
    });
    ++stats_.ansatz_executions;
    stats_.ansatz_gates += circuit.size();
    return spanned(ledger, "dist.expectation",
                   [&] { return state_.expectation(observable_); });
  }
  const ExecutorStats& stats() const override { return stats_; }

  SpanLedger* ledger = nullptr;

 private:
  const Ansatz& ansatz_;
  const PauliSum& observable_;
  DistStateVector state_;
  ExecutorStats stats_;
};

/// Median wall time of the bound circuit on one plain StateVector.
double sv_apply_seconds(const Circuit& circuit, int threads, int reps) {
  set_threads(threads);
  StateVector psi(kQubits);
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    psi.reset();
    const vqsim::WallTimer clock;
    psi.apply_circuit(circuit);
    s.push_back(clock.seconds());
  }
  set_threads(kRanks);
  return median(s);
}

}  // namespace

WorkloadResult run_dist_hubbard20(const RunConfig& config) {
  WorkloadResult result;
  const auto build = [&] { return build_inputs(config.seed); };
  const auto inputs = build();
  DistInputs& in = *inputs;
  VqeOptions options;
  options.optimizer = OptimizerKind::kSpsa;
  options.spsa.iterations = config.smoke ? 0 : 1;
  options.spsa.seed = config.seed;
  options.initial_parameters = in.theta0;
  const std::size_t n = in.ansatz.num_parameters();

  (void)in.executor->evaluate(in.theta0);  // warm-up: first touch of shards
  time_setups(config.setups_each_side(), result, build);
  TimedEvaluator timed(*in.executor);
  std::vector<VqeResult> runs;
  const CounterDelta counts;
  const vqsim::WallTimer clock;
  do {
    runs.push_back(run_vqe(timed, n, options));
  } while (clock.seconds() < config.untraced_seconds());
  result.op_ms = timed.ms;
  result.attempted = timed.ms.size();
  record_counts(result, counts, static_cast<double>(timed.ms.size()));

  for (const VqeResult& r : runs)
    result.check(r.energy == runs.front().energy,
                 "dist_hubbard20: SPSA runs not deterministic");
  for (const CommStats& t : timed.traffic)
    result.check(t == timed.traffic.front(),
                 "dist_hubbard20: comm traffic differs between evaluations");
  result.details["amplitudes_exchanged_per_eval"] =
      static_cast<double>(timed.traffic.front().amplitudes_exchanged);

  // The distributed energy must match the shared-memory executor.
  double max_diff = 0.0;
  {
    SimulatorExecutor reference(in.ansatz, in.hamiltonian);
    for (const std::vector<double>* theta :
         {&in.theta0, &runs.front().parameters}) {
      const double dist = in.executor->evaluate(*theta);
      max_diff =
          std::max(max_diff, std::abs(dist - reference.evaluate(*theta)));
    }
  }
  result.details["dist_vs_sv_max_abs_diff"] = max_diff;
  result.check(max_diff <= 1e-9,
               "dist_hubbard20: distributed energy differs from the "
               "shared-memory executor by more than 1e-9");

  if (config.trace) {
    ReplicaExecutor replica(in.ansatz, in.hamiltonian, &in.comm);
    (void)replica.evaluate(in.theta0);  // warm-up, untraced
    SpanLedger ledger;
    replica.ledger = &ledger;
    bool match = true;
    std::vector<double> traced_ms;
    const vqsim::WallTimer traced_clock;
    do {
      const vqsim::WallTimer run_clock;
      const VqeResult r = spanned(&ledger, "vqe.optimizer",
                                  [&] { return run_vqe(replica, n, options); });
      // Each evaluation of the run is charged the run's mean.
      traced_ms.insert(
          traced_ms.end(), r.evaluations,
          run_clock.milliseconds() / static_cast<double>(r.evaluations));
      match = match && r.energy == runs.front().energy &&
              r.evaluations == runs.front().evaluations;
    } while (traced_clock.seconds() < config.traced_seconds());
    record_trace(result, ledger, traced_ms, match);

    const Circuit bound = in.ansatz.circuit(in.theta0);
    const double dist_apply_s = ledger.self_seconds("dist.apply") /
                                static_cast<double>(traced_ms.size());
    const int reps = config.smoke ? 1 : 3;
    result.layer["sim.sv_apply_1t_ratio"] =
        sv_apply_seconds(bound, 1, reps) / dist_apply_s;
    result.layer["sim.sv_apply_4t_ratio"] =
        sv_apply_seconds(bound, kRanks, reps) / dist_apply_s;
  }
  time_setups(config.setups_each_side(), result, build);
  return result;
}

}  // namespace perfbench
