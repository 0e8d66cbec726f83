//! Hyperplanes, sign vectors and regions (Definition 7.2).

use crn_numeric::{NVec, WideInt, ZVec};

use crate::cone::Cone;

/// A threshold boundary hyperplane `{x : t · x = h}` with integer normal and
/// offset.
///
/// Following Section 7.2 we treat a threshold `t·x ≥ h` as splitting `N^d`
/// into the points with `t·x ≥ h` (sign `+1`) and those with `t·x ≤ h − 1`
/// (sign `−1`), so the "hyperplane" `t·x = h − 1/2` contains no integer
/// points and every integer point gets a definite sign.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hyperplane {
    normal: ZVec,
    offset: i64,
}

impl Hyperplane {
    /// The hyperplane bounding the threshold set `{x : normal·x ≥ offset}`.
    #[must_use]
    pub fn new(normal: ZVec, offset: i64) -> Self {
        Hyperplane { normal, offset }
    }

    /// The normal vector `t`.
    #[must_use]
    pub fn normal(&self) -> &ZVec {
        &self.normal
    }

    /// The offset `h`.
    #[must_use]
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// The ambient dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.normal.dim()
    }

    /// The sign of the integer point `x`: `+1` if `t·x ≥ h`, otherwise `−1`.
    #[must_use]
    pub fn sign_of(&self, x: &NVec) -> i8 {
        if self.normal.dot_n(x) >= WideInt::from(self.offset) {
            1
        } else {
            -1
        }
    }
}

/// A region of the arrangement: the set of points sharing one sign vector,
/// `R = {x ∈ R^d_{≥0} : S(Tx − h) ≥ 0}` (Definition 7.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    dim: usize,
    hyperplanes: Vec<Hyperplane>,
    signs: Vec<i8>,
}

impl Region {
    /// The region of the arrangement `hyperplanes` containing the integer
    /// point `x`.
    #[must_use]
    pub fn containing(hyperplanes: &[Hyperplane], x: &NVec) -> Self {
        Region {
            dim: x.dim(),
            hyperplanes: hyperplanes.to_vec(),
            signs: hyperplanes.iter().map(|h| h.sign_of(x)).collect(),
        }
    }

    /// The region with an explicit sign vector.
    ///
    /// # Panics
    ///
    /// Panics if the sign vector length differs from the number of
    /// hyperplanes, the hyperplane list is empty (the ambient dimension would
    /// be unknown), or a sign is not `±1`.
    #[must_use]
    pub fn from_signs(hyperplanes: Vec<Hyperplane>, signs: Vec<i8>) -> Self {
        assert_eq!(
            hyperplanes.len(),
            signs.len(),
            "sign vector length mismatch"
        );
        assert!(signs.iter().all(|&s| s == 1 || s == -1), "signs must be ±1");
        assert!(
            !hyperplanes.is_empty(),
            "use Region::containing for arrangements without hyperplanes"
        );
        Region {
            dim: hyperplanes[0].dim(),
            hyperplanes,
            signs,
        }
    }

    /// The sign vector `S` of the region.
    #[must_use]
    pub fn signs(&self) -> &[i8] {
        &self.signs
    }

    /// The hyperplanes of the arrangement.
    #[must_use]
    pub fn hyperplanes(&self) -> &[Hyperplane] {
        &self.hyperplanes
    }

    /// The ambient dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the integer point `x` lies in this region.
    #[must_use]
    pub fn contains(&self, x: &NVec) -> bool {
        self.hyperplanes
            .iter()
            .zip(&self.signs)
            .all(|(h, &s)| h.sign_of(x) == s)
    }

    /// The recession cone `recc(R) = {y ≥ 0 : S T y ≥ 0}` of the region.
    #[must_use]
    pub fn recession_cone(&self) -> Cone {
        let dim = self.dim();
        let normals: Vec<ZVec> = self
            .hyperplanes
            .iter()
            .zip(&self.signs)
            .map(|(h, &s)| {
                let scaled: Vec<i64> = h.normal().iter().map(|&c| c * i64::from(s)).collect();
                ZVec::from(scaled)
            })
            .collect();
        Cone::new(dim, normals)
    }

    /// Whether the region is *determined*: its recession cone is
    /// full-dimensional (Section 7.3).
    #[must_use]
    pub fn is_determined(&self) -> bool {
        self.recession_cone().dimension() == self.dim()
    }

    /// Whether the region is *eventual*: it contains integer points above any
    /// bound (Definition 7.10), equivalently its recession cone contains a
    /// strictly positive vector.
    #[must_use]
    pub fn is_eventual(&self) -> bool {
        self.recession_cone().contains_strictly_positive()
    }

    /// Whether `self` is a neighbor of the (under-determined) region `other`,
    /// i.e. `recc(other) ⊆ recc(self)` (Definition 7.11).
    #[must_use]
    pub fn is_neighbor_of(&self, other: &Region) -> bool {
        other.recession_cone().is_subset_of(&self.recession_cone())
    }

    /// The integer points of the region within the box `[0, bound]^d`.
    #[must_use]
    pub fn members_in_box(&self, bound: u64) -> Vec<NVec> {
        NVec::box_iter(self.dim(), bound)
            .filter(|x| self.contains(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single hyperplane x1 = x2 (as the boundary of x1 - x2 >= 0),
    /// shifted so no integer point lies on it: sign +1 means x1 >= x2,
    /// sign -1 means x1 <= x2 - 1.
    fn diagonal_split() -> Vec<Hyperplane> {
        vec![Hyperplane::new(ZVec::from(vec![1, -1]), 0)]
    }

    /// The two-hyperplane arrangement of Figure 7: x1 < x2 / x1 = x2 / x1 > x2
    /// needs the two shifted hyperplanes x1 - x2 >= 1 and x2 - x1 >= 1.
    fn figure7_arrangement() -> Vec<Hyperplane> {
        vec![
            Hyperplane::new(ZVec::from(vec![1, -1]), 1),
            Hyperplane::new(ZVec::from(vec![-1, 1]), 1),
        ]
    }

    #[test]
    fn signs_partition_points() {
        let hp = diagonal_split();
        let below = Region::containing(&hp, &NVec::from(vec![3, 1]));
        let above = Region::containing(&hp, &NVec::from(vec![1, 3]));
        assert_ne!(below.signs(), above.signs());
        assert!(below.contains(&NVec::from(vec![5, 5])));
        assert!(!above.contains(&NVec::from(vec![5, 5])));
        assert!(above.contains(&NVec::from(vec![0, 1])));
    }

    #[test]
    fn figure7_regions_classification() {
        let hp = figure7_arrangement();
        let d2 = Region::containing(&hp, &NVec::from(vec![4, 1])); // x1 > x2
        let d1 = Region::containing(&hp, &NVec::from(vec![1, 4])); // x1 < x2
        let u = Region::containing(&hp, &NVec::from(vec![3, 3])); // x1 = x2
        assert!(d1.is_determined());
        assert!(d2.is_determined());
        assert!(!u.is_determined());
        assert!(d1.is_eventual());
        assert!(d2.is_eventual());
        assert!(u.is_eventual());
        // The under-determined diagonal has both half-planes as neighbors.
        assert!(d1.is_neighbor_of(&u));
        assert!(d2.is_neighbor_of(&u));
        assert!(!d1.is_neighbor_of(&d2));
        // Every region is a neighbor of itself.
        assert!(u.is_neighbor_of(&u));
    }

    #[test]
    fn recession_cone_dimensions_match_figure8b() {
        let hp = figure7_arrangement();
        let u = Region::containing(&hp, &NVec::from(vec![2, 2]));
        assert_eq!(u.recession_cone().dimension(), 1);
        let d = Region::containing(&hp, &NVec::from(vec![5, 0]));
        assert_eq!(d.recession_cone().dimension(), 2);
    }

    #[test]
    fn non_eventual_region() {
        // Arrangement with hyperplane x1 >= 3: the region x1 <= 2 is
        // under-determined? No — it is 2-dimensional (still determined is
        // false? its recession cone is {y : y1 <= 0} ∩ orthant = the y2 axis).
        let hp = vec![Hyperplane::new(ZVec::from(vec![1, 0]), 3)];
        let low = Region::containing(&hp, &NVec::from(vec![0, 7]));
        assert!(!low.is_determined());
        assert!(!low.is_eventual());
        let high = Region::containing(&hp, &NVec::from(vec![9, 0]));
        assert!(high.is_determined());
        assert!(high.is_eventual());
    }

    #[test]
    fn members_in_box() {
        let hp = figure7_arrangement();
        let u = Region::containing(&hp, &NVec::from(vec![0, 0]));
        let members = u.members_in_box(4);
        assert_eq!(members.len(), 5);
        assert!(members.iter().all(|x| x[0] == x[1]));
    }

    #[test]
    #[should_panic(expected = "signs must be ±1")]
    fn invalid_sign_vector_panics() {
        let _ = Region::from_signs(diagonal_split(), vec![0]);
    }
}
