//! The hyperplane arrangement induced by a semilinear presentation
//! (Section 7.2) and its region decomposition.

use crn_numeric::{lcm_u64, NVec};
use crn_semilinear::SemilinearFunction;

use crate::region::{Hyperplane, Region};

/// The arrangement of threshold hyperplanes and the global period extracted
/// from a fixed semilinear presentation of `f` (Lemma 7.3).
///
/// The regions of the arrangement partition `N^d`; together with the global
/// period `p` they are the scaffolding on which the quilt-affine extensions of
/// Section 7 are built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrangement {
    dim: usize,
    hyperplanes: Vec<Hyperplane>,
    period: u64,
}

impl Arrangement {
    /// Builds the arrangement of a semilinear presentation: one hyperplane per
    /// threshold set, and the global period as the lcm of all mod-set moduli.
    #[must_use]
    pub fn from_function(f: &SemilinearFunction) -> Self {
        let mut hyperplanes = Vec::new();
        let mut period = 1u64;
        for (domain, _) in f.pieces() {
            for t in domain.collect_thresholds() {
                let h = Hyperplane::new(t.normal().clone(), t.offset());
                if !hyperplanes.contains(&h) {
                    hyperplanes.push(h);
                }
            }
            for m in domain.collect_mods() {
                period = lcm_u64(period, m.modulus());
            }
        }
        if period == 0 {
            period = 1;
        }
        Arrangement {
            dim: f.dim(),
            hyperplanes,
            period,
        }
    }

    /// An arrangement built directly from hyperplanes (used by the Figure 8
    /// experiments, which specify arrangements rather than functions).
    #[must_use]
    pub fn from_hyperplanes(dim: usize, hyperplanes: Vec<Hyperplane>, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(
            hyperplanes.iter().all(|h| h.dim() == dim),
            "dimension mismatch"
        );
        Arrangement {
            dim,
            hyperplanes,
            period,
        }
    }

    /// The ambient dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The hyperplanes of the arrangement.
    #[must_use]
    pub fn hyperplanes(&self) -> &[Hyperplane] {
        &self.hyperplanes
    }

    /// The global period `p` (lcm of all mod-set moduli, 1 if there are none).
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The region containing the integer point `x`.
    #[must_use]
    pub fn region_of(&self, x: &NVec) -> Region {
        Region::containing(&self.hyperplanes, x)
    }

    /// The distinct regions that contain at least one integer point of
    /// `[0, bound]^d`, in order of first appearance.
    ///
    /// For the arrangements arising from the paper's examples a modest bound
    /// (a few multiples of the largest threshold offset) finds every region
    /// that contains integer points at all.
    #[must_use]
    pub fn regions_in_box(&self, bound: u64) -> Vec<Region> {
        let mut regions: Vec<Region> = Vec::new();
        for x in NVec::box_iter(self.dim, bound) {
            let region = self.region_of(&x);
            if !regions.iter().any(|r| r.signs() == region.signs()) {
                regions.push(region);
            }
        }
        regions
    }

    /// The eventual regions (Definition 7.10) among [`Self::regions_in_box`].
    #[must_use]
    pub fn eventual_regions_in_box(&self, bound: u64) -> Vec<Region> {
        self.regions_in_box(bound)
            .into_iter()
            .filter(Region::is_eventual)
            .collect()
    }

    /// The determined neighbors (Definition 7.11 restricted to determined
    /// regions) of `region` among the regions found in `[0, bound]^d`.
    #[must_use]
    pub fn determined_neighbors_in_box(&self, region: &Region, bound: u64) -> Vec<Region> {
        self.regions_in_box(bound)
            .into_iter()
            .filter(|r| r.is_determined() && r.is_neighbor_of(region))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_numeric::ZVec;
    use crn_semilinear::examples;

    #[test]
    fn figure7_function_induces_three_regions() {
        let arrangement = Arrangement::from_function(&examples::figure7_example());
        assert_eq!(arrangement.period(), 1);
        let regions = arrangement.regions_in_box(8);
        assert_eq!(regions.len(), 3);
        let determined: Vec<_> = regions.iter().filter(|r| r.is_determined()).collect();
        let under: Vec<_> = regions.iter().filter(|r| !r.is_determined()).collect();
        assert_eq!(determined.len(), 2);
        assert_eq!(under.len(), 1);
        // Corollary 7.19: the under-determined eventual region has at least
        // two determined neighbors.
        let neighbors = arrangement.determined_neighbors_in_box(under[0], 8);
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn floor_three_halves_has_single_region_and_period_two() {
        let arrangement = Arrangement::from_function(&examples::floor_three_halves());
        assert_eq!(arrangement.period(), 2);
        assert_eq!(arrangement.hyperplanes().len(), 0);
        let regions = arrangement.regions_in_box(6);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].is_determined());
    }

    #[test]
    fn figure8a_style_arrangement_classification() {
        // A three-hyperplane arrangement in N^2 with the qualitative structure
        // of Figure 8a: finite regions near the origin, two determined
        // eventual regions, and one under-determined but eventual region (a
        // diagonal band, like region 4 of the figure).
        //   x1 - x2 >= 1,  x2 - x1 >= 1  (a parallel pair bounding the band)
        //   x1 + x2 >= 5                 (cutting off the finite corner)
        let hyperplanes = vec![
            Hyperplane::new(ZVec::from(vec![1, -1]), 1),
            Hyperplane::new(ZVec::from(vec![-1, 1]), 1),
            Hyperplane::new(ZVec::from(vec![1, 1]), 5),
        ];
        let arrangement = Arrangement::from_hyperplanes(2, hyperplanes, 1);
        let regions = arrangement.regions_in_box(12);
        let determined = regions.iter().filter(|r| r.is_determined()).count();
        let under_eventual = regions
            .iter()
            .filter(|r| r.is_eventual() && !r.is_determined())
            .count();
        let non_eventual = regions.iter().filter(|r| !r.is_eventual()).count();
        assert_eq!(determined, 2, "the two determined eventual regions");
        assert_eq!(under_eventual, 1, "the under-determined eventual band");
        assert_eq!(non_eventual, 3, "the finite regions near the origin");
        assert_eq!(regions.len(), 6);
        // The band's recession cone is the 1-D diagonal ray.
        let band = regions
            .iter()
            .find(|r| r.is_eventual() && !r.is_determined())
            .unwrap();
        assert_eq!(band.recession_cone().dimension(), 1);
    }

    #[test]
    fn figure8c_arrangement_has_nine_eventual_regions() {
        // Figure 8c: two pairs of parallel hyperplanes in N^3,
        //   x1 - x2 >= 1, x2 - x1 >= 1 (splitting on x1 vs x2)
        //   x2 - x3 >= 1, x3 - x2 >= 1 (splitting on x2 vs x3)
        // giving nine eventual regions: 4 determined (regions 1,3,7,9),
        // 4 under-determined with 2-D recession cones (2,4,6,8) and one with a
        // 1-D recession cone (region 5).
        let hyperplanes = vec![
            Hyperplane::new(ZVec::from(vec![1, -1, 0]), 1),
            Hyperplane::new(ZVec::from(vec![-1, 1, 0]), 1),
            Hyperplane::new(ZVec::from(vec![0, 1, -1]), 1),
            Hyperplane::new(ZVec::from(vec![0, -1, 1]), 1),
        ];
        let arrangement = Arrangement::from_hyperplanes(3, hyperplanes, 1);
        let regions = arrangement.eventual_regions_in_box(6);
        assert_eq!(regions.len(), 9);
        let by_dim = |d: usize| {
            regions
                .iter()
                .filter(|r| r.recession_cone().dimension() == d)
                .count()
        };
        assert_eq!(by_dim(3), 4, "determined regions 1,3,7,9");
        assert_eq!(by_dim(2), 4, "under-determined regions 2,4,6,8");
        assert_eq!(by_dim(1), 1, "the central region 5");
        // Figure 8d: region 5's cone ⊆ region 6's cone ⊆ region 3's cone.
        let center = regions
            .iter()
            .find(|r| r.recession_cone().dimension() == 1)
            .unwrap();
        let determined_neighbors = arrangement.determined_neighbors_in_box(center, 6);
        assert_eq!(determined_neighbors.len(), 4);
        let two_dim_neighbors: Vec<_> = regions
            .iter()
            .filter(|r| r.recession_cone().dimension() == 2 && r.is_neighbor_of(center))
            .collect();
        assert_eq!(two_dim_neighbors.len(), 4);
    }

    #[test]
    fn equation2_counterexample_has_diagonal_strip() {
        let arrangement = Arrangement::from_function(&examples::equation2_counterexample());
        let regions = arrangement.regions_in_box(8);
        let under: Vec<_> = regions
            .iter()
            .filter(|r| r.is_eventual() && !r.is_determined())
            .collect();
        assert_eq!(under.len(), 1);
        // The two determined neighbors have the SAME quilt-affine extension
        // gradient (1,1): that is what triggers the Lemma 7.20 case.
        let neighbors = arrangement.determined_neighbors_in_box(under[0], 8);
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn region_of_is_consistent_with_regions_in_box() {
        let arrangement = Arrangement::from_function(&examples::figure7_example());
        for x in NVec::box_iter(2, 5) {
            let region = arrangement.region_of(&x);
            assert!(region.contains(&x));
        }
    }
}
