//! Correctness checks. Each returns `Err(reason)` on a mismatch; the
//! benchmark counts every failed check as a failed operation.

use crate::workloads::Outcome;
use pcnna_fleet::prelude::*;

/// The request books balance: `offered = admitted + rejected` and
/// `admitted = completed + shed + unserved`, in aggregate and per class,
/// with the per-class columns summing to the aggregates.
///
/// # Errors
///
/// Names the first identity that does not hold.
pub fn books_balance(r: &FleetReport) -> Result<(), String> {
    if r.offered != r.admitted + r.rejected {
        return Err(format!(
            "offered {} != admitted {} + rejected {}",
            r.offered, r.admitted, r.rejected
        ));
    }
    let accounted = r.completed + r.resilience.shed + r.resilience.unserved;
    if r.admitted != accounted {
        return Err(format!(
            "admitted {} != completed {} + shed {} + unserved {}",
            r.admitted, r.completed, r.resilience.shed, r.resilience.unserved
        ));
    }
    let (mut admitted, mut completed, mut shed, mut unserved) = (0, 0, 0, 0);
    for c in &r.per_class {
        if c.admitted != c.completed + c.shed + c.unserved {
            return Err(format!(
                "class {}: admitted {} != completed {} + shed {} + unserved {}",
                c.name, c.admitted, c.completed, c.shed, c.unserved
            ));
        }
        admitted += c.admitted;
        completed += c.completed;
        shed += c.shed;
        unserved += c.unserved;
    }
    if (admitted, completed, shed, unserved)
        != (
            r.admitted,
            r.completed,
            r.resilience.shed,
            r.resilience.unserved,
        )
    {
        return Err(format!(
            "per-class sums (admitted {admitted}, completed {completed}, shed {shed}, \
             unserved {unserved}) differ from the aggregate"
        ));
    }
    Ok(())
}

/// A report equals its oracle: a sharded run its `simulate_sharded(1, 1)`
/// twin, a traced run its untraced twin.
///
/// # Errors
///
/// Describes the headline fields of both reports.
pub fn matches_oracle(report: &FleetReport, oracle: &FleetReport) -> Result<(), String> {
    if report == oracle {
        return Ok(());
    }
    Err(format!(
        "report differs from its oracle: offered {} vs {}, completed {} vs {}, \
         batches {} vs {}, energy {} vs {}",
        report.offered,
        oracle.offered,
        report.completed,
        oracle.completed,
        report.batches,
        oracle.batches,
        report.energy_j,
        oracle.energy_j
    ))
}

/// A repeated pass reproduced the first one exactly: every
/// simulated figure (the whole report) and, for a sweep, every frontier,
/// counter and co-design row.
///
/// # Errors
///
/// Says which part diverged.
pub fn same_as_first(first: &Outcome, again: &Outcome) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let part = match (first, again) {
        (Outcome::Sweep(a), Outcome::Sweep(b)) if a.frontiers != b.frontiers => "design frontier",
        (Outcome::Sweep(a), Outcome::Sweep(b)) if a.stats != b.stats => "search counters",
        (Outcome::Sweep(a), Outcome::Sweep(b)) if a.rows != b.rows => "co-design ranking",
        _ => "simulated report",
    };
    Err(format!("repeated run diverged from the first: {part}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Size};

    fn tiny_report() -> FleetReport {
        workloads::small_fleet(3, Size::Smoke)
            .simulate()
            .expect("valid smoke scenario")
    }

    #[test]
    fn books_check_fires_on_unbalanced_reports() {
        let good = tiny_report();
        books_balance(&good).expect("engine books balance");
        let mut bad = good.clone();
        bad.offered += 1;
        assert!(books_balance(&bad).is_err());
        let mut bad = good.clone();
        bad.completed -= 1;
        assert!(books_balance(&bad).is_err());
        let mut bad = good;
        bad.per_class[0].completed -= 1;
        bad.per_class[0].unserved += 1;
        assert!(books_balance(&bad).is_err());
    }

    #[test]
    fn oracle_check_fires_on_a_differing_report() {
        let oracle = tiny_report();
        matches_oracle(&oracle.clone(), &oracle).expect("identical reports match");
        let mut bad = oracle.clone();
        bad.batches += 1;
        assert!(matches_oracle(&bad, &oracle).is_err());
        let mut bad = oracle.clone();
        bad.latency.p999_s *= 1.0 + 1e-12;
        assert!(matches_oracle(&bad, &oracle).is_err());
    }

    #[test]
    fn repeat_check_fires_on_a_changed_metric_or_frontier() {
        let first = Outcome::Fleet(tiny_report());
        same_as_first(&first, &first.clone()).expect("identical runs match");
        let mut report = tiny_report();
        report.slo_attainment += 1e-9;
        assert!(same_as_first(&first, &Outcome::Fleet(report)).is_err());

        let sweep = match workloads::inputs(workloads::Workload::DesignSweep, 1, Size::Smoke) {
            Ok(workloads::Inputs::Sweep(s)) => s,
            other => panic!("design-sweep inputs: {other:?}"),
        };
        let (a, _) = sweep.run().expect("smoke sweep runs");
        let mut b = a.clone();
        b.frontiers[0].pop();
        let err = same_as_first(&Outcome::Sweep(a), &Outcome::Sweep(b)).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
    }
}
