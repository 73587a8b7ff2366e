#ifndef PSENS_CORE_LAZY_GREEDY_H_
#define PSENS_CORE_LAZY_GREEDY_H_

#include <vector>

#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/slot.h"

namespace psens {

/// CELF-style lazy-evaluation variant of Algorithm 1 ("Greedy Sensor
/// Selection"). Semantically it implements the same selection rule as the
/// eager loop in greedy.cc — repeatedly pick the sensor maximizing
/// sum_{q: delta_v > 0} delta_v_{q,a} - c_a until no sensor has positive
/// net benefit — but instead of rescanning every remaining sensor each
/// round it keeps the *cached* net gains in a CelfFrontier
/// (core/celf_frontier.h) and only re-evaluates its front:
///
///   - take the front; if its cached net was computed this round it is
///     fresh and wins (or, if not positive, terminates the run);
///   - otherwise re-evaluate its net against the current selection, stamp
///     it with the round, and update it.
///
/// When every participating valuation v_q is submodular, cached nets are
/// upper bounds on true nets (marginals only shrink as selections grow),
/// so a fresh front provably dominates all other candidates and
/// the lazy run selects the *identical* sensor sequence — with identical
/// proportional payments (Algorithm 1 line 10) — as the eager rescan,
/// while typically making far fewer valuation calls (tracked through the
/// same `SelectionResult::valuation_calls` diagnostics).
///
/// The paper's aggregate valuation (Eq. 5) is mildly non-submodular
/// through its mean-quality factor; a stale cached net can then
/// underestimate a marginal that has grown, and the lazy run may pick a
/// different (still positive-net) sensor or stop one pick early. The
/// Theorem 1 properties (positive total utility, individual rationality,
/// payments covering cost) hold regardless, because they only depend on
/// committing positive-net sensors with proportional payments.
///
/// `cost_scale` has the same meaning as in GreedySensorSelection: it
/// scales sensor costs during candidate ranking (Eq. 18 sharing weights),
/// while the committed payment always charges the true slot cost.
SelectionResult LazyGreedySensorSelection(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale = nullptr);

}  // namespace psens

#endif  // PSENS_CORE_LAZY_GREEDY_H_
