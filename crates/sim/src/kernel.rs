//! The dense simulation kernel: incremental propensity maintenance over a
//! [`CompiledCrn`].
//!
//! The Gillespie simulator fires one reaction per step, and one firing only
//! changes the counts of the species in that reaction's delta list.  The
//! compiled dependency graph ([`CompiledCrn::dependents`]) names exactly the
//! reactions whose mass-action propensity can have changed, so after a
//! firing the kernel recomputes *those* instead of rescanning every
//! reaction — the difference between O(dependents) and
//! O(reactions · reactants) per step.
//!
//! Incremental maintenance is *exact*, not approximate: a recomputed entry is
//! the same deterministic function of the same counts a full rebuild would
//! evaluate, so the table is bit-identical to a fresh rebuild after any
//! firing sequence (property-tested in `tests/dense_kernel.rs`).
//!
//! The [`PropensityTable`] also keeps the total and the sums over blocks of
//! eight reactions as running sums, so a step neither re-adds every
//! propensity nor scans every reaction to select one.  Unit-rate propensities
//! are integers, so while each is below `2^53 / (R + 1)` every sum of them is
//! an integer below 2^53 and f64 arithmetic on them is exact: the running
//! total equals the in-order sum bit for bit, and the block roulette picks the
//! reaction the in-order scan would.  Past that limit the table falls back to
//! the in-order sum and the flat scan until every propensity is below it
//! again.
//!
//! The table classifies each reaction once per [`rebuild`] by the shape of
//! its reactants: `X`, `X + Y`, `2X`, or anything else.  The three named
//! shapes are evaluated as one loop-free product of the same factors that
//! [`propensity_dense`] multiplies, in the same order, so every entry is
//! bit-identical to it; anything else runs [`propensity_dense`] itself.
//!
//! [`rebuild`]: PropensityTable::rebuild

use crn_model::{CompiledCrn, CompiledReaction};

use crate::gillespie::select_reaction;

/// The mass-action propensity of `reaction` on a dense count vector: the
/// number of distinct ways to choose its reactant multiset,
/// `∏_s C(count_s, r_s)·r_s!` (i.e. the falling factorial), with unit rate
/// constant.
///
/// The reactant list of a [`CompiledReaction`] preserves the sparse
/// reactant-map iteration order, and the factors are multiplied in the same
/// order as [`crate::gillespie::propensity`], so the two functions agree
/// bit-for-bit — which is what lets the dense Gillespie kernel replay the
/// sparse oracle seed-for-seed.
#[must_use]
pub fn propensity_dense(reaction: &CompiledReaction, counts: &[u64]) -> f64 {
    let mut a = 1.0f64;
    for &(s, r) in reaction.reactants() {
        let count = counts[s];
        if count < r {
            return 0.0;
        }
        for k in 0..r {
            a *= (count - k) as f64;
        }
    }
    a
}

/// A reaction's reactant multiset, classified so that a propensity of one
/// of the common shapes is a loop-free product.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `X`: the count of X.
    One(usize),
    /// `X + Y` with X before Y: the product of their counts.
    Two(usize, usize),
    /// `2X`: `c·(c − 1)`.
    Pair(usize),
    /// Anything else: [`propensity_dense`].
    General,
}

impl Shape {
    fn of(reaction: &CompiledReaction) -> Shape {
        match *reaction.reactants() {
            [(s, 1)] => Shape::One(s),
            [(s, 1), (t, 1)] => Shape::Two(s, t),
            [(s, 2)] => Shape::Pair(s),
            _ => Shape::General,
        }
    }

    /// `reaction`'s propensity on `counts`, bit for bit what
    /// [`propensity_dense`] returns.  That loop multiplies `1.0` by `c`, then
    /// by `c − 1` or the next count, and returns `0.0` when a count is below
    /// its coefficient; the products here skip the `1.0·`, which is exact,
    /// and reach `0.0` there through a zero factor.
    #[inline]
    fn propensity(self, reaction: &CompiledReaction, counts: &[u64]) -> f64 {
        match self {
            Shape::One(s) => counts[s] as f64,
            Shape::Two(s, t) => counts[s] as f64 * counts[t] as f64,
            Shape::Pair(s) => counts[s] as f64 * counts[s].saturating_sub(1) as f64,
            Shape::General => propensity_dense(reaction, counts),
        }
    }
}

/// The number of reactions per block of the propensity roulette.
const BLOCK: usize = 8;

/// A per-reaction propensity table kept current across firings via the
/// compiled dependency graph, with its total and its sums over blocks of
/// eight reactions.
#[derive(Debug, Clone, Default)]
pub struct PropensityTable {
    /// Each reaction's [`Shape`], in reaction order.
    shapes: Vec<Shape>,
    values: Vec<f64>,
    /// `blocks[b]` is the sum of `values[b * BLOCK ..][.. BLOCK]`, exact (and
    /// read) only while `exact`.
    blocks: Vec<f64>,
    total: f64,
    /// `2^53 / (R + 1)`: below it, every sum of propensities is exact.
    limit: f64,
    /// Whether every value is below `limit`, so that `total` and `blocks`
    /// are running sums.  Otherwise `total` is re-summed in order after
    /// every refresh.
    exact: bool,
}

impl PropensityTable {
    /// An empty table; call [`rebuild`](Self::rebuild) before use.
    #[must_use]
    pub fn new() -> Self {
        PropensityTable::default()
    }

    /// Recomputes every entry from scratch (run start, or after an arbitrary
    /// state change).
    ///
    /// # Errors
    ///
    /// Returns the index of the reaction at which the in-order sum of the
    /// propensities stops being finite.
    pub fn rebuild(&mut self, crn: &CompiledCrn, counts: &[u64]) -> Result<(), usize> {
        self.shapes.clear();
        self.shapes.extend(crn.reactions().iter().map(Shape::of));
        self.values.clear();
        self.values.extend(
            crn.reactions()
                .iter()
                .zip(&self.shapes)
                .map(|(r, shape)| shape.propensity(r, counts)),
        );
        self.limit = (1u64 << 53) as f64 / (self.values.len() + 1) as f64;
        self.resum()
    }

    /// Recomputes only the entries that firing `fired` can have changed,
    /// updating the running sums by the difference.
    ///
    /// # Errors
    ///
    /// As [`rebuild`](Self::rebuild), checked only once the table has left
    /// its exact range.
    #[inline]
    pub fn refresh_after(
        &mut self,
        crn: &CompiledCrn,
        counts: &[u64],
        fired: usize,
    ) -> Result<(), usize> {
        let reactions = crn.reactions();
        let mut below = true;
        for &j in crn.dependents(fired) {
            let a = self.shapes[j].propensity(&reactions[j], counts);
            let change = a - self.values[j];
            self.values[j] = a;
            self.blocks[j / BLOCK] += change;
            self.total += change;
            below &= a < self.limit;
        }
        if self.exact && below {
            return Ok(());
        }
        self.resum()
    }

    /// Sums the values in reaction order and restarts the block sums; they
    /// run from here if every value is below the limit.
    fn resum(&mut self) -> Result<(), usize> {
        self.total = self.values.iter().sum();
        if !self.total.is_finite() {
            let mut partial = 0.0f64;
            return Err(self
                .values
                .iter()
                .position(|&a| {
                    partial += a;
                    !partial.is_finite()
                })
                .expect("an infinite sum has an infinite prefix"));
        }
        self.exact = self.values.iter().all(|&a| a < self.limit);
        self.blocks.clear();
        self.blocks.extend(
            self.values
                .chunks(BLOCK)
                .map(|block| block.iter().sum::<f64>()),
        );
        Ok(())
    }

    /// The per-reaction propensities, in reaction order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The total propensity.  Bit for bit the sum of [`values`](Self::values)
    /// in reaction order: a running sum while the table is exact, the
    /// in-order sum itself otherwise.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The reaction whose propensity interval contains `target` (drawn from
    /// `[0, total)`): the one `select_reaction` picks on
    /// [`values`](Self::values).
    ///
    /// Inside the exact range it skips whole blocks whose sum does not
    /// exceed what is left of `target` and scans the one that does; exact
    /// arithmetic makes that the reaction the in-order scan picks.  Past the
    /// range, or when rounding puts `target` at `total` so that no block is
    /// left, it runs the in-order scan itself.
    #[inline]
    #[must_use]
    pub fn select(&self, target: f64) -> usize {
        if self.exact {
            let mut left = target;
            let mut passed = |sum: f64| {
                if left < sum {
                    return true;
                }
                left -= sum;
                false
            };
            if let Some(block) = self.blocks.iter().position(|&sum| passed(sum)) {
                let start = block * BLOCK;
                let end = self.values.len().min(start + BLOCK);
                let offset = self.values[start..end]
                    .iter()
                    .position(|&a| passed(a))
                    .expect("the block's sum exceeds the target, so one of its values does");
                return start + offset;
            }
        }
        select_reaction(&self.values, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_model::{examples, Configuration, Crn, DenseState, Reaction};
    use proptest::prelude::*;

    #[test]
    fn dense_propensity_matches_sparse() {
        let min = examples::min_crn();
        let crn = min.crn();
        let compiled = CompiledCrn::compile(crn);
        let x1 = crn.species_named("X1").unwrap();
        let x2 = crn.species_named("X2").unwrap();
        let config = Configuration::from_counts(vec![(x1, 3), (x2, 2)]);
        let state = DenseState::from_configuration(&config, compiled.stride());
        assert_eq!(
            propensity_dense(&compiled.reactions()[0], state.counts()),
            crate::gillespie::propensity(crn, &config, 0)
        );
        let empty = DenseState::zero(compiled.stride());
        assert_eq!(
            propensity_dense(&compiled.reactions()[0], empty.counts()),
            0.0
        );
    }

    #[test]
    fn reactions_are_classified_by_reactant_shape() {
        let mut crn = Crn::new();
        for reaction in [
            "X -> Y",
            "X + Y -> Z",
            "2X -> Y",
            "3X -> Y",
            "X + 2Y -> Z",
            "X + Y + Z -> X",
        ] {
            crn.parse_reaction(reaction).unwrap();
        }
        let compiled = CompiledCrn::compile(&crn);
        let shapes: Vec<Shape> = compiled.reactions().iter().map(Shape::of).collect();
        assert!(
            matches!(
                shapes[..],
                [
                    Shape::One(0),
                    Shape::Two(0, 1),
                    Shape::Pair(0),
                    Shape::General,
                    Shape::General,
                    Shape::General,
                ]
            ),
            "{shapes:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A shaped propensity is `propensity_dense` to the bit, for
        /// reactions with 0–3 reactant species and coefficients 1–4, at the
        /// counts where a loop-free product could part from the loop: 0, 1,
        /// 2, small values, the table's exact-range limit ± 1 and the top of
        /// `u64`.
        #[test]
        fn shaped_propensities_are_the_dense_propensity_to_the_bit(
            coefficients in collection::vec(collection::vec(0u64..5, 3), 1..9),
            kinds in collection::vec(0u64..6, 3),
            smalls in collection::vec(3u64..64, 3),
            offsets in collection::vec(0u64..3, 3),
        ) {
            let mut crn = Crn::new();
            let species = ["X", "Y", "Z"].map(|name| crn.add_species(name));
            let sink = crn.add_species("W");
            for row in &coefficients {
                let reactants: Vec<_> = species
                    .iter()
                    .zip(row)
                    .filter(|&(_, &c)| c > 0)
                    .map(|(&s, &c)| (s, c))
                    .collect();
                crn.add_reaction(Reaction::new(reactants, vec![(sink, 1)]));
            }
            let compiled = CompiledCrn::compile(&crn);
            let limit = ((1u64 << 53) as f64 / (coefficients.len() + 1) as f64) as u64;
            let mut counts: Vec<u64> = (0..3)
                .map(|i| match kinds[i] {
                    0..=2 => kinds[i],
                    3 => smalls[i],
                    4 => limit - 1 + offsets[i],
                    _ => u64::MAX - 2 + offsets[i],
                })
                .collect();
            counts.push(0);
            for reaction in compiled.reactions() {
                prop_assert_eq!(
                    Shape::of(reaction).propensity(reaction, &counts).to_bits(),
                    propensity_dense(reaction, &counts).to_bits(),
                    "{:?} at {:?}", reaction, counts
                );
            }
        }
    }

    #[test]
    fn incremental_table_tracks_firings() {
        let max = examples::max_crn();
        let compiled = CompiledCrn::compile(max.crn());
        let start = max
            .initial_configuration(&crn_numeric::NVec::from(vec![2, 3]))
            .unwrap();
        let mut state = DenseState::from_configuration(&start, compiled.stride());
        let mut table = PropensityTable::new();
        table.rebuild(&compiled, state.counts()).unwrap();
        // Fire X1 -> Z1 + Y and verify against a fresh rebuild.
        state.apply(&compiled.reactions()[0]).unwrap();
        table.refresh_after(&compiled, state.counts(), 0).unwrap();
        let mut fresh = PropensityTable::new();
        fresh.rebuild(&compiled, state.counts()).unwrap();
        assert_eq!(table.values(), fresh.values());
        assert_eq!(table.total().to_bits(), fresh.total().to_bits());
    }

    #[test]
    fn the_table_leaves_and_regains_its_exact_range() {
        // Two reactions: the limit is 2^53 / 3, which X(X - 1) passes
        // between X = 54,794,158 and 54,794,159.
        let mut crn = Crn::new();
        crn.parse_reaction("2X -> 3X").unwrap();
        crn.parse_reaction("2X -> X").unwrap();
        let compiled = CompiledCrn::compile(&crn);
        let mut table = PropensityTable::new();
        let mut counts = [54_794_158u64];
        table.rebuild(&compiled, &counts).unwrap();
        assert!(table.exact);
        // Growing past the limit falls back to the in-order arithmetic.
        compiled.reactions()[0].apply_in_place(&mut counts).unwrap();
        table.refresh_after(&compiled, &counts, 0).unwrap();
        assert!(!table.exact);
        assert_eq!(table.total(), table.values().iter().sum::<f64>());
        // Shrinking below it restarts the running sums.
        compiled.reactions()[1].apply_in_place(&mut counts).unwrap();
        table.refresh_after(&compiled, &counts, 1).unwrap();
        assert!(table.exact);
    }
}
