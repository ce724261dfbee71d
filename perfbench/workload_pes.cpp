// pes_sweep: a warm-started Nelder-Mead VQE sweep of an H4 chain with
// UCCSD(8,4) (26 parameters) over four spacings, through run_vqe_sweep.
//
// Why: the state is 4 KiB, so kernels stream almost nothing and the time
// goes to per-evaluation overhead (circuit build, bind, apply dispatch, a
// 185-term expectation, the optimizer). A change to the exec layer shows
// here; cache blocking for large states must not. The optimizer runs a
// fixed evaluation budget with no tolerance stop, so every seed costs the
// same work and only the geometry (and so the energies) changes.
#include <memory>
#include <utility>
#include <vector>

#include "chem/fci.hpp"
#include "chem/jordan_wigner.hpp"
#include "chem/scf.hpp"
#include "common/rng.hpp"
#include "exec/compiled_cache.hpp"
#include "exec/compiled_circuit.hpp"
#include "pauli/grouping.hpp"
#include "sim/expectation.hpp"
#include "stats.hpp"
#include "vqe/sweep.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace vqsim;

constexpr int kPoints = 4;
constexpr double kSpacingStep = 0.1;  // bohr

struct PesInputs {
  UccsdAnsatzAdapter ansatz{8, 4};
  std::vector<double> xs;
  std::vector<MolecularIntegrals> integrals;
  std::vector<PauliSum> hamiltonians;
};

std::unique_ptr<PesInputs> build_inputs(std::uint64_t seed) {
  auto in = std::make_unique<PesInputs>();
  Rng rng(seed);
  const double first = 1.6 + 0.1 * rng.uniform();  // sweep stays in [1.6, 2.0]
  for (int i = 0; i < kPoints; ++i) {
    const double x = first + kSpacingStep * i;
    in->xs.push_back(x);
    in->integrals.push_back(molecule_from_atoms(h4_chain_geometry(x), 4));
    in->hamiltonians.push_back(
        jordan_wigner(molecular_hamiltonian(in->integrals.back())));
  }
  return in;
}

SweepOptions sweep_options(const RunConfig& config) {
  SweepOptions o;
  o.warm_start = true;
  o.vqe.nelder_mead.initial_step = 0.02;
  o.vqe.nelder_mead.max_evaluations = config.smoke ? 40 : 300;
  o.vqe.nelder_mead.xatol = 0.0;  // never converges early: fixed budget
  o.vqe.nelder_mead.fatol = 0.0;
  return o;
}

SweepResult library_sweep(const PesInputs& in, const SweepOptions& options) {
  const ObservableFactory factory = [&in](double x) {
    for (std::size_t i = 0; i < in.xs.size(); ++i)
      if (in.xs[i] == x) return in.hamiltonians[i];
    throw std::logic_error("pes_sweep: unknown spacing");
  };
  return run_vqe_sweep(in.ansatz, factory, in.xs, options);
}

/// SimulatorExecutor's compiled-cache, direct-expectation path, call by
/// call, with a span around each layer call.
class ReplicaExecutor final : public EnergyEvaluator {
 public:
  ReplicaExecutor(SpanLedger* ledger, const Ansatz& ansatz,
                  PauliSum observable,
                  exec::CompiledCircuitCache& cache)
      : ledger_(ledger),
        ansatz_(ansatz),
        observable_(std::move(observable)),
        groups_(spanned(ledger, "vqe.executor_setup", [&] {
          return group_qubitwise_commuting(observable_);
        })),
        psi_(ansatz.num_qubits()) {
    const std::vector<double> theta0(ansatz.num_parameters(), 0.0);
    const Circuit representative = spanned(
        ledger_, "ir.circuit_build", [&] { return ansatz.circuit(theta0); });
    plan_ = spanned(ledger_, "exec.compile",
                    [&] { return cache.get_or_compile(representative); });
  }

  double evaluate(std::span<const double> theta) override {
    ++stats_.energy_evaluations;
    const Circuit bound = spanned(ledger_, "ir.circuit_build",
                                  [&] { return ansatz_.circuit(theta); });
    const std::vector<exec::CompiledOp> ops =
        spanned(ledger_, "exec.bind", [&] { return plan_->bind(bound); });
    spanned(ledger_, "exec.apply_ops", [&] {
      psi_.reset();
      exec::apply_ops(psi_, ops);
    });
    return spanned(ledger_, "sim.expectation",
                   [&] { return expectation(psi_, observable_); });
  }
  const ExecutorStats& stats() const override { return stats_; }

 private:
  SpanLedger* ledger_;
  const Ansatz& ansatz_;
  PauliSum observable_;
  // Unused on the direct path, but SimulatorExecutor builds it too.
  std::vector<MeasurementGroup> groups_;
  std::shared_ptr<const exec::CompiledCircuit> plan_;
  ExecutorStats stats_;
  StateVector psi_;
};

/// run_vqe_sweep's loop over the replica executor.
std::vector<VqeResult> replica_sweep(SpanLedger* ledger, const PesInputs& in,
                                     const SweepOptions& options) {
  exec::CompiledCircuitCache cache;
  std::vector<VqeResult> points;
  std::vector<double> seed;
  for (std::size_t i = 0; i < in.xs.size(); ++i) {
    VqeOptions vqe_options = options.vqe;
    if (!seed.empty()) vqe_options.initial_parameters = seed;
    ReplicaExecutor executor(ledger, in.ansatz, in.hamiltonians[i], cache);
    points.push_back(spanned(ledger, "vqe.optimizer", [&] {
      return run_vqe(executor, in.ansatz.num_parameters(), vqe_options);
    }));
    // run_vqe(ansatz, ...) ends by building the Fig. 3 cost model.
    spanned(ledger, "vqe.executor_setup", [&] {
      (void)model_energy_evaluation(in.ansatz, in.hamiltonians[i]);
    });
    seed = points.back().parameters;
  }
  return points;
}

}  // namespace

WorkloadResult run_pes_sweep(const RunConfig& config) {
  WorkloadResult result;
  const auto build = [&] { return build_inputs(config.seed); };
  const auto inputs = build();
  const PesInputs& in = *inputs;
  const SweepOptions options = sweep_options(config);

  const SweepResult reference = library_sweep(in, options);  // warm-up
  time_setups(config.setups_each_side(), result, build);
  const CounterDelta counts;
  result.op_ms = repeat_for(config.untraced_seconds(), [&] {
    const vqsim::WallTimer clock;
    const SweepResult r = library_sweep(in, options);
    const double ms = clock.milliseconds();
    ++result.attempted;
    result.check(r.compile_stats.misses == 1, "pes_sweep: compile_misses != 1");
    for (std::size_t i = 0; i < r.points.size(); ++i)
      result.check(
          r.points[i].result.energy == reference.points[i].result.energy,
          "pes_sweep: sweep energies not deterministic");
    return ms;
  });
  record_counts(result, counts, static_cast<double>(result.op_ms.size()));

  for (std::size_t i = 0; i < in.xs.size(); ++i) {
    const double e = reference.points[i].result.energy;
    const double e_fci =
        fci_ground_state(molecular_hamiltonian(in.integrals[i]), 8, 4).energy;
    result.check(e >= e_fci - 1e-9, "pes_sweep: energy below FCI");
    result.check(e <= in.integrals[i].hartree_fock_energy() + 1e-12,
                 "pes_sweep: energy above Hartree-Fock");
  }

  if (config.trace) {
    SpanLedger ledger;
    bool match = true;
    const std::vector<double> traced_ms =
        repeat_for(config.traced_seconds(), [&] {
          const vqsim::WallTimer clock;
          const std::vector<VqeResult> points =
              replica_sweep(&ledger, in, options);
          const double ms = clock.milliseconds();
          for (std::size_t i = 0; i < points.size(); ++i) {
            const VqeResult& library = reference.points[i].result;
            match = match && points[i].energy == library.energy &&
                    points[i].evaluations == library.evaluations;
          }
          return ms;
        });
    record_trace(result, ledger, traced_ms, match);
  }
  time_setups(config.setups_each_side(), result, build);
  return result;
}

}  // namespace perfbench
