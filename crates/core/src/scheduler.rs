//! Kernel-location scheduling (paper Figure 3 and the eq. (8) numerator).
//!
//! PCNNA processes one receptive-field *location* per fast-clock cycle, all
//! `K` kernels in parallel, sequencing through the `Nlocs` locations of the
//! layer. Between consecutive locations "only a fraction of input feature
//! map values proportional to the size of the stride is required to be
//! loaded" (§IV) — the paper's steady-state estimate is `nc·m·s` values.
//!
//! [`LocationSchedule`] produces the exact visit order and, per location,
//! the exact set of *newly required* input elements (exclusive of zero
//! padding, which costs no load). The exact counts validate the paper's
//! approximation and feed the pipeline simulator; they also expose the
//! row-wrap penalty of raster scanning, which the serpentine scan order
//! (this reproduction's extension) removes.

use crate::config::ScanOrder;
use pcnna_cnn::geometry::ConvGeometry;

/// One kernel location: the output coordinate it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Output row.
    pub oy: usize,
    /// Output column.
    pub ox: usize,
}

/// Summary of a schedule's input-loading behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of locations visited (= `Nlocs`).
    pub locations: u64,
    /// Input elements loaded at the first location.
    pub first_loads: u64,
    /// Exact total input loads across the layer.
    pub total_loads: u64,
    /// Largest per-location load after the first (the row-wrap peak under
    /// raster scan).
    pub max_steady_loads: u64,
    /// The paper's steady-state estimate, `nc·m·s`.
    pub paper_steady_estimate: u64,
}

/// The visit order of kernel locations plus exact incremental load sets.
#[derive(Debug, Clone)]
pub struct LocationSchedule {
    geometry: ConvGeometry,
    scan: ScanOrder,
    order: Vec<Location>,
}

impl LocationSchedule {
    /// Builds the schedule for a layer under a scan order.
    #[must_use]
    pub fn new(geometry: ConvGeometry, scan: ScanOrder) -> Self {
        let o = geometry.output_side();
        let mut order = Vec::with_capacity(o * o);
        for oy in 0..o {
            match scan {
                ScanOrder::RowMajor => {
                    for ox in 0..o {
                        order.push(Location { oy, ox });
                    }
                }
                ScanOrder::Serpentine => {
                    if oy % 2 == 0 {
                        for ox in 0..o {
                            order.push(Location { oy, ox });
                        }
                    } else {
                        for ox in (0..o).rev() {
                            order.push(Location { oy, ox });
                        }
                    }
                }
            }
        }
        LocationSchedule {
            geometry,
            scan,
            order,
        }
    }

    /// The layer geometry.
    #[must_use]
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// The scan order.
    #[must_use]
    pub fn scan(&self) -> ScanOrder {
        self.scan
    }

    /// The visit order.
    #[must_use]
    pub fn locations(&self) -> &[Location] {
        &self.order
    }

    /// Linear addresses (`(c·n + y)·n + x`) of the *real* (non-padding)
    /// input elements in the receptive field of `loc`, in increasing
    /// order.
    #[must_use]
    pub fn required_inputs(&self, loc: Location) -> Vec<u64> {
        let g = &self.geometry;
        let (n, m, nc, s, p) = (
            g.input_side(),
            g.kernel_side(),
            g.channels(),
            g.stride(),
            g.padding() as isize,
        );
        let base_y = (loc.oy * s) as isize - p;
        let base_x = (loc.ox * s) as isize - p;
        let mut addrs = Vec::with_capacity(g.n_kernel() as usize);
        for c in 0..nc {
            for ky in 0..m {
                let y = base_y + ky as isize;
                if y < 0 || y as usize >= n {
                    continue;
                }
                for kx in 0..m {
                    let x = base_x + kx as isize;
                    if x < 0 || x as usize >= n {
                        continue;
                    }
                    addrs.push(((c * n + y as usize) * n + x as usize) as u64);
                }
            }
        }
        addrs
    }

    /// Per-location counts of newly required input elements, in visit order
    /// (the first entry is the cold-start fill).
    #[must_use]
    pub fn update_counts(&self) -> Vec<u64> {
        let mut counts = Vec::with_capacity(self.order.len());
        let mut previous: Vec<u64> = Vec::new();
        for &loc in &self.order {
            let required = self.required_inputs(loc);
            // Both windows are sorted: walk them together and count the
            // addresses `previous` lacks.
            let mut rest = previous.iter().peekable();
            let mut new = 0u64;
            for &a in &required {
                while rest.next_if(|&&p| p < a).is_some() {}
                if rest.next_if_eq(&&a).is_none() {
                    new += 1;
                }
            }
            counts.push(new);
            previous = required;
        }
        counts
    }

    /// The paper's steady-state per-location update estimate, `nc·m·s`
    /// (numerator of eq. (8)).
    #[must_use]
    pub fn paper_steady_estimate(&self) -> u64 {
        self.geometry.updated_inputs_per_location()
    }

    /// Computes the schedule's loading statistics (walks every location).
    #[must_use]
    pub fn stats(&self) -> ScheduleStats {
        let counts = self.update_counts();
        let first = counts.first().copied().unwrap_or(0);
        let max_steady = counts.iter().skip(1).copied().max().unwrap_or(0);
        ScheduleStats {
            locations: counts.len() as u64,
            first_loads: first,
            total_loads: counts.iter().sum(),
            max_steady_loads: max_steady,
            paper_steady_estimate: self.paper_steady_estimate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn g(n: usize, m: usize, p: usize, s: usize, nc: usize) -> ConvGeometry {
        ConvGeometry::new(n, m, p, s, nc, 4).unwrap()
    }

    #[test]
    fn covers_every_location_exactly_once() {
        for scan in [ScanOrder::RowMajor, ScanOrder::Serpentine] {
            let sched = LocationSchedule::new(g(9, 3, 1, 2, 2), scan);
            let set: HashSet<(usize, usize)> =
                sched.locations().iter().map(|l| (l.oy, l.ox)).collect();
            assert_eq!(set.len(), sched.locations().len());
            assert_eq!(
                sched.locations().len() as u64,
                sched.geometry().n_locations()
            );
        }
    }

    #[test]
    fn figure3_has_49_cycles() {
        // Paper Figure 3 narrative: 49 receptive-field cycles.
        let sched = LocationSchedule::new(g(9, 3, 0, 1, 1), ScanOrder::RowMajor);
        assert_eq!(sched.locations().len(), 49);
    }

    #[test]
    fn first_location_loads_full_receptive_field() {
        let geometry = g(8, 3, 0, 1, 3);
        let sched = LocationSchedule::new(geometry, ScanOrder::RowMajor);
        let counts = sched.update_counts();
        assert_eq!(counts[0], geometry.n_kernel()); // no padding: full m·m·nc
    }

    #[test]
    fn padding_reduces_first_load() {
        // With p=1 the (0,0) receptive field hangs over the border: only
        // (m-1)² real values exist per channel.
        let geometry = g(8, 3, 1, 1, 2);
        let sched = LocationSchedule::new(geometry, ScanOrder::RowMajor);
        let counts = sched.update_counts();
        assert_eq!(counts[0], 2 * 2 * 2);
    }

    #[test]
    fn steady_state_matches_paper_estimate_interior() {
        // Interior column steps load exactly nc·m·s new values.
        let geometry = g(12, 3, 0, 1, 3);
        let sched = LocationSchedule::new(geometry, ScanOrder::RowMajor);
        let counts = sched.update_counts();
        let o = geometry.output_side();
        // location (0, 5) is mid-row: index 5
        assert_eq!(counts[5], geometry.updated_inputs_per_location());
        // mid-row of a later row too
        assert_eq!(counts[3 * o + 4], geometry.updated_inputs_per_location());
    }

    #[test]
    fn row_wrap_penalty_under_raster() {
        // Under raster scan, the first location of row 1 shares no columns
        // with the last location of row 0 (for small m) — near-full reload.
        let geometry = g(16, 3, 0, 1, 2);
        let sched = LocationSchedule::new(geometry, ScanOrder::RowMajor);
        let counts = sched.update_counts();
        let o = geometry.output_side();
        let wrap = counts[o]; // first location of row 1
        assert!(
            wrap > geometry.updated_inputs_per_location(),
            "row wrap {wrap} should exceed steady {}",
            geometry.updated_inputs_per_location()
        );
    }

    #[test]
    fn serpentine_removes_row_wrap_penalty() {
        let geometry = g(16, 3, 0, 1, 2);
        let raster = LocationSchedule::new(geometry, ScanOrder::RowMajor).stats();
        let serp = LocationSchedule::new(geometry, ScanOrder::Serpentine).stats();
        assert!(serp.total_loads < raster.total_loads);
        // serpentine: turning down by s only needs nc·m·s new values
        assert!(serp.max_steady_loads <= geometry.updated_inputs_per_location());
    }

    #[test]
    fn stride_scales_updates() {
        let s1 = LocationSchedule::new(g(16, 3, 0, 1, 1), ScanOrder::RowMajor);
        let s2 = LocationSchedule::new(g(16, 3, 0, 2, 1), ScanOrder::RowMajor);
        // interior steady-state: 3 vs 6 values
        assert_eq!(s1.update_counts()[5], 3);
        assert_eq!(s2.update_counts()[3], 6);
    }

    #[test]
    fn stride_beyond_kernel_reloads_everything() {
        // s > m: windows are disjoint; every location loads Nkernel.
        let geometry = ConvGeometry::new(16, 2, 0, 3, 1, 4).unwrap();
        let sched = LocationSchedule::new(geometry, ScanOrder::RowMajor);
        let counts = sched.update_counts();
        assert!(counts.iter().all(|&c| c == geometry.n_kernel()));
    }

    #[test]
    fn total_loads_bounded_by_locations_times_kernel() {
        let geometry = g(10, 3, 1, 1, 2);
        let stats = LocationSchedule::new(geometry, ScanOrder::RowMajor).stats();
        assert!(stats.total_loads <= stats.locations * geometry.n_kernel());
        assert!(stats.total_loads >= geometry.n_input() / 2);
        assert_eq!(stats.paper_steady_estimate, 6);
    }

    #[test]
    fn required_inputs_are_within_bounds_and_unique() {
        let geometry = g(7, 3, 2, 2, 2);
        let sched = LocationSchedule::new(geometry, ScanOrder::RowMajor);
        let n = geometry.input_side() as u64;
        let max_addr = geometry.channels() as u64 * n * n;
        for &loc in sched.locations() {
            let req = sched.required_inputs(loc);
            let set: HashSet<u64> = req.iter().copied().collect();
            assert_eq!(set.len(), req.len(), "duplicate addresses at {loc:?}");
            assert!(req.iter().all(|&a| a < max_addr));
        }
    }

    #[test]
    fn one_by_one_kernel_loads_each_input_once() {
        let geometry = ConvGeometry::new(6, 1, 0, 1, 2, 3).unwrap();
        let stats = LocationSchedule::new(geometry, ScanOrder::RowMajor).stats();
        assert_eq!(stats.total_loads, geometry.n_input());
    }
}
