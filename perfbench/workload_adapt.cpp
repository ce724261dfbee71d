// adapt_water10: the Fig. 5 pipeline at 10 qubits. A water-like molecule
// (6 orbitals, 10 electrons) is downfolded onto 5 active orbitals with the
// core frozen, mapped by Jordan-Wigner, and solved by AdaptVqe::run until
// it is within 1 mHa of the FCI energy (inner Adam, 200 iterations).
//
// Why: the time goes to exp-Pauli kernels and CompiledPauliSum on a
// 1,024-amplitude state; the exec layer is never entered, so a change
// there must not show here. The seed perturbs the one-body diagonal by at
// most 1e-6 Ha: the inputs differ per seed while the operator path, and
// so the work, stays the same.
#include <cmath>
#include <memory>
#include <vector>

#include "chem/fci.hpp"
#include "chem/hartree_fock.hpp"
#include "chem/jordan_wigner.hpp"
#include "chem/molecules.hpp"
#include "common/rng.hpp"
#include "downfold/downfold.hpp"
#include "sim/expectation.hpp"
#include "stats.hpp"
#include "vqe/adapt.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace vqsim;

struct AdaptInputs {
  DownfoldResult downfolded;
  PauliSum hamiltonian;
};

std::unique_ptr<AdaptInputs> build_inputs(std::uint64_t seed) {
  MolecularIntegrals ints = water_like(6, 10);
  Rng rng(seed);
  for (int p = 0; p < ints.norb; ++p)
    ints.set_one_body(p, p,
                      ints.one_body(p, p) + 1e-6 * rng.uniform(-1.0, 1.0));
  auto in = std::make_unique<AdaptInputs>();
  in->downfolded = hermitian_downfold(ints, ActiveSpace{1, 5});
  in->hamiltonian = jordan_wigner(in->downfolded.h_eff);
  return in;
}

/// AdaptVqe::run's loop (without checkpointing), call by call, with a span
/// around each layer call.
AdaptResult replica_run(SpanLedger* ledger, const PauliSum& hamiltonian,
                        idx reference, const std::vector<PauliSum>& pool,
                        const AdaptOptions& options) {
  const int nq = hamiltonian.num_qubits();
  const AdaptAnsatzState ansatz(nq, reference, &pool);
  const CompiledPauliSum h_compiled =
      spanned(ledger, "sim.observable_compile",
              [&] { return CompiledPauliSum(hamiltonian, nq); });
  AdaptResult result;
  std::vector<std::size_t> sequence;
  std::vector<double> theta;
  StateVector psi(nq);
  StateVector h_psi(nq);
  StateVector g_psi(nq);
  const auto prepare = [&](std::span<const double> x) {
    spanned(ledger, "adapt.prepare",
            [&] { ansatz.prepare(&psi, sequence, x); });
  };

  for (std::size_t it = 0; it < options.max_operators; ++it) {
    double best_g = 0.0;
    std::size_t best_p = 0;
    spanned(ledger, "adapt.screen", [&] {
      prepare(theta);
      h_compiled.apply(psi, &h_psi);
      for (std::size_t p = 0; p < pool.size(); ++p) {
        apply_pauli_sum(pool[p], psi, &g_psi);
        const double g = -2.0 * g_psi.inner_product(h_psi).imag();
        if (std::abs(g) > std::abs(best_g)) {
          best_g = g;
          best_p = p;
        }
      }
    });
    if (std::abs(best_g) < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    sequence.push_back(best_p);
    theta.push_back(0.0);

    const ObjectiveFn objective = [&](std::span<const double> x) {
      prepare(x);
      return spanned(ledger, "sim.expectation",
                     [&] { return h_compiled.expectation(psi); });
    };
    const GradientFn gradient = [&](std::span<const double> x,
                                    std::span<double> out) {
      spanned(ledger, "adapt.gradient",
              [&] { ansatz.gradient(h_compiled, sequence, x, out); });
    };
    Adam inner(options.inner, gradient);
    const OptimizerResult opt = spanned(ledger, "vqe.optimizer", [&] {
      return inner.minimize(objective, theta);
    });
    theta = opt.x;
    AdaptIterationRecord rec;
    rec.iteration = it + 1;
    rec.pool_index = best_p;
    rec.max_pool_gradient = std::abs(best_g);
    rec.energy = opt.fval;
    rec.parameters = theta.size();
    result.iterations.push_back(rec);
    result.energy = opt.fval;
    if (std::abs(opt.fval - options.reference_energy) <
        options.reference_target) {
      result.converged = true;
      break;
    }
  }
  result.parameters = std::move(theta);
  result.operator_sequence = std::move(sequence);
  return result;
}

bool same_run(const AdaptResult& a, const AdaptResult& b) {
  return a.energy == b.energy && a.operator_sequence == b.operator_sequence &&
         a.converged == b.converged;
}

}  // namespace

WorkloadResult run_adapt_water10(const RunConfig& config) {
  WorkloadResult result;
  const auto build = [&] { return build_inputs(config.seed); };
  const auto inputs = build();
  const DownfoldResult& df = inputs->downfolded;
  const double e_fci = fci_ground_state(df.h_eff, df.n_active_spin_orbitals,
                                        df.n_active_electrons)
                           .energy;
  AdaptOptions options;
  options.max_operators = 25;
  options.reference_energy = e_fci;
  options.reference_target = kChemicalAccuracy;
  options.inner.iterations = 200;
  AdaptVqe adapt(inputs->hamiltonian, df.n_active_electrons, options);

  const AdaptResult reference = adapt.run();  // warm-up
  result.check(reference.converged &&
                   std::abs(reference.energy - e_fci) < kChemicalAccuracy,
               "adapt_water10: not within 1 mHa of FCI");
  result.check(reference.iterations.size() >= 2,
               "adapt_water10: converged without growing the ansatz");
  time_setups(config.setups_each_side(), result, build);

  const CounterDelta counts;
  result.op_ms = repeat_for(config.untraced_seconds(), [&] {
    const vqsim::WallTimer clock;
    const AdaptResult r = adapt.run();
    const double ms = clock.milliseconds();
    ++result.attempted;
    result.check(same_run(r, reference),
                 "adapt_water10: runs not deterministic");
    return ms;
  });
  record_counts(result, counts, static_cast<double>(result.op_ms.size()));

  if (config.trace) {
    SpanLedger ledger;
    bool match = true;
    const idx hf = hf_basis_state(df.n_active_electrons);
    const std::vector<double> traced_ms =
        repeat_for(config.traced_seconds(), [&] {
          const vqsim::WallTimer clock;
          const AdaptResult r = replica_run(&ledger, inputs->hamiltonian, hf,
                                            adapt.pool(), options);
          const double ms = clock.milliseconds();
          match = match && same_run(r, reference) &&
                  r.iterations.size() == reference.iterations.size();
          return ms;
        });
    record_trace(result, ledger, traced_ms, match);
  }
  time_setups(config.setups_each_side(), result, build);
  return result;
}

}  // namespace perfbench
