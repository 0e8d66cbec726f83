//! Conservation laws: integer P-invariants of the stoichiometry matrix.
//!
//! A weight vector `v ∈ Z^S` is a *conservation law* when `v·N = 0` for the
//! stoichiometry matrix `N` — firing any reaction leaves `v·c` unchanged, so
//! `v·c` is constant along every trajectory.  Two law families are computed
//! here, both with exact, overflow-checked `i128` arithmetic (no floating
//! point anywhere):
//!
//! * [`conservation_basis`] — a basis of the full (signed) left nullspace of
//!   `N`, by rational Gaussian elimination over [`crn_numeric::Rational`] and
//!   scaling each basis vector to a primitive integer vector.  Complete: any
//!   linear invariant is a rational combination of these, which makes the
//!   basis the right engine for reachability *refutation* (if some law weighs
//!   source and target differently, the target is unreachable).  A basis
//!   vector whose computation overflows `i128` is dropped (an overflow
//!   mid-elimination drops them all): a missing law loses refutations, never
//!   soundness.
//! * [`nonnegative_laws`] — minimal-support nonnegative laws (P-semiflows) by
//!   the Farkas construction.  Nonnegative laws bound species counts
//!   (`v(s)·c(s) ≤ v·c₀` for all `s`), which is what the `C005`
//!   output-starvation lint consumes.
//!
//! The Farkas construction is one double-description core, shared with the
//! T-semiflows and both monotone-potential cones (Motzkin et al. 1953;
//! Fukuda & Prodon 1996).  Each row of its table carries a nonnegative
//! *payload* (the weights being enumerated) and the image of that payload
//! under the constraint columns still to annul.  Annulling a column combines
//! a positive row with a negative row only when the two are *adjacent*: no
//! other row's payload support fits inside the union of theirs.  So every
//! table holds exactly the extreme rays of the partial cone, which are its
//! minimal-support vectors, and the result needs no minimality filter.  The
//! enumeration is worst-case exponential: [`FARKAS_ROW_CAP`] bounds the rows
//! one column may hold, and a combination that overflows `i128` is dropped.
//! Either way the result is flagged truncated — sound (every returned vector
//! is genuine) but possibly incomplete.

use std::collections::HashSet;

use crn_numeric::{checked_gcd_i128, checked_lcm_i128, Rational};

use crate::species::SpeciesSet;

use super::stoichiometry::Stoichiometry;

/// An integer conservation law: weights `v` with `v·N = 0`, stored as one
/// weight per dense species index and kept *primitive* (the gcd of the
/// weights is 1, and the first nonzero weight is positive for signed laws).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationLaw {
    weights: Vec<i128>,
}

impl ConservationLaw {
    /// The weight vector, indexed by dense species index.
    #[must_use]
    pub fn weights(&self) -> &[i128] {
        &self.weights
    }

    /// The weight of species index `s` (zero past the law's stride).
    #[must_use]
    pub fn weight(&self, s: usize) -> i128 {
        self.weights.get(s).copied().unwrap_or(0)
    }

    /// Whether every weight is nonnegative (the law is a P-semiflow).
    #[must_use]
    pub fn is_nonnegative(&self) -> bool {
        self.weights.iter().all(|&w| w >= 0)
    }

    /// The invariant value `v·counts`, or `None` when it overflows `i128`.
    /// Counts past the law's stride weigh zero; weights past the counts'
    /// length multiply an implicit zero count.
    #[must_use]
    pub fn weigh(&self, counts: &[u64]) -> Option<i128> {
        weigh(&self.weights, counts)
    }

    /// Whether the law proves `target` unreachable from `source`: a law
    /// weighs every configuration of a trajectory identically, so different
    /// weights refute reachability (in either direction).  A weighing that
    /// overflows refutes nothing.
    #[must_use]
    pub fn refutes(&self, source: &[u64], target: &[u64]) -> bool {
        match (self.weigh(source), self.weigh(target)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    /// Renders the law as a signed sum of species names, e.g.
    /// `X1 + Y - Z2 - K` or `L + W + 2Y`.  Species outside the interner are
    /// shown by index as `#i`.
    #[must_use]
    pub fn display(&self, species: &SpeciesSet) -> String {
        let mut out = String::new();
        for (i, &w) in self.weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let name = if i < species.len() {
                species.name(crate::species::Species(i)).to_owned()
            } else {
                format!("#{i}")
            };
            if out.is_empty() {
                if w < 0 {
                    out.push('-');
                }
            } else if w < 0 {
                out.push_str(" - ");
            } else {
                out.push_str(" + ");
            }
            let magnitude = w.unsigned_abs();
            if magnitude != 1 {
                out.push_str(&magnitude.to_string());
            }
            out.push_str(&name);
        }
        if out.is_empty() {
            out.push('0');
        }
        out
    }

    /// Builds a law from raw weights, reducing to primitive form.  Returns
    /// `None` for the zero vector, or when a weight is `i128::MIN` (which has
    /// no absolute value for the gcd).
    fn primitive(mut weights: Vec<i128>) -> Option<Self> {
        let g = weights
            .iter()
            .try_fold(0i128, |acc, &w| checked_gcd_i128(acc, w))?;
        if g == 0 {
            return None;
        }
        for w in &mut weights {
            *w /= g;
        }
        Some(ConservationLaw { weights })
    }
}

/// `v·counts` with counts past `v`'s length weighing zero, or `None` when a
/// product or the sum overflows `i128`.
pub(super) fn weigh(v: &[i128], counts: &[u64]) -> Option<i128> {
    v.iter().zip(counts).try_fold(0i128, |sum, (&w, &c)| {
        sum.checked_add(w.checked_mul(i128::from(c))?)
    })
}

/// A basis of the signed left nullspace `{v : v·N = 0}` as primitive integer
/// vectors, via rational Gaussian elimination on the transposed system
/// `Nᵀ·vᵀ = 0` (one equation per reaction, one unknown per species).
///
/// Species untouched by any reaction yield unit laws, so a basis always
/// exists for them; a CRN with no reactions gets one unit law per species
/// slot.  Unless `i128` overflowed, the basis is complete for linear
/// refutation: any integer (indeed rational) conservation law is a
/// combination of the returned vectors.  An overflowing vector is left out.
#[must_use]
pub fn conservation_basis(stoich: &Stoichiometry) -> Vec<ConservationLaw> {
    checked_basis(stoich).0
}

/// [`conservation_basis`] together with whether the basis is complete:
/// `false` when `i128` overflow dropped a basis vector, so the returned laws
/// span only part of the nullspace.
pub(super) fn checked_basis(stoich: &Stoichiometry) -> (Vec<ConservationLaw>, bool) {
    let cols = stoich.stride();
    let rows = stoich.reaction_count();
    // The constraint matrix A = Nᵀ: A[r][s] = net change of s by reaction r.
    let mut a: Vec<Vec<Rational>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|s| Rational::from(stoich.entry(s, r)))
                .collect()
        })
        .collect();
    let Some(pivot_cols) = reduce_to_rref(&mut a, cols) else {
        return (Vec::new(), false);
    };
    let rank = pivot_cols.len();

    // One basis vector per free column: set that free variable to 1, every
    // other free variable to 0, and read the pivot variables off the RREF.
    let mut basis = Vec::with_capacity(cols - rank);
    let mut complete = true;
    for free in (0..cols).filter(|c| !pivot_cols.contains(c)) {
        match basis_vector(&a, &pivot_cols, free, cols) {
            Some(law) => basis.push(law),
            None => complete = false,
        }
    }
    (basis, complete)
}

/// Forward elimination of `a` (with `cols` columns) to reduced row echelon
/// form; returns the pivot columns, or `None` on `i128` overflow.
fn reduce_to_rref(a: &mut [Vec<Rational>], cols: usize) -> Option<Vec<usize>> {
    let rows = a.len();
    let mut pivot_cols: Vec<usize> = Vec::new();
    for col in 0..cols {
        let rank = pivot_cols.len();
        if rank == rows {
            break;
        }
        let Some(pivot_row) = (rank..rows).find(|&r| !a[r][col].is_zero()) else {
            continue;
        };
        a.swap(rank, pivot_row);
        let pivot = a[rank][col];
        for cell in &mut a[rank] {
            *cell = cell.checked_div(pivot)?;
        }
        let pivot_row = a[rank].clone();
        for (r, row) in a.iter_mut().enumerate() {
            if r != rank && !row[col].is_zero() {
                let factor = row[col];
                for (cell, &p) in row.iter_mut().zip(&pivot_row) {
                    *cell = cell.checked_sub(p.checked_mul(factor)?)?;
                }
            }
        }
        pivot_cols.push(col);
    }
    Some(pivot_cols)
}

/// The basis vector of free column `free` read off the RREF `a`, scaled to a
/// primitive integer vector, or `None` on `i128` overflow.
fn basis_vector(
    a: &[Vec<Rational>],
    pivot_cols: &[usize],
    free: usize,
    cols: usize,
) -> Option<ConservationLaw> {
    let mut v = vec![Rational::ZERO; cols];
    v[free] = Rational::ONE;
    for (row, &pc) in pivot_cols.iter().enumerate() {
        v[pc] = a[row][free].checked_neg()?;
    }
    // Scale to a primitive integer vector: multiply by the lcm of the
    // denominators, then divide by the gcd; flip so the first nonzero
    // weight is positive (a canonical sign for stable output).
    let scale = v
        .iter()
        .try_fold(1i128, |acc, value| checked_lcm_i128(acc, value.denom()))?;
    let mut weights = v
        .iter()
        .map(|value| {
            let scaled = value.checked_mul(Rational::from(scale))?;
            Some(scaled.to_integer().expect("scaled by the denominator lcm"))
        })
        .collect::<Option<Vec<i128>>>()?;
    if weights.iter().find(|&&w| w != 0).is_some_and(|&w| w < 0) {
        for w in &mut weights {
            *w = w.checked_neg()?;
        }
    }
    ConservationLaw::primitive(weights)
}

/// Default cap on the rows one column of a Farkas enumeration may hold.  The
/// double-description core keeps exactly the extreme rays of each partial
/// cone, whose number is worst-case exponential, so past this many rows a
/// column stops combining and the enumeration reports itself truncated
/// (soundly — every returned vector is genuine, some may be missed).
pub const FARKAS_ROW_CAP: usize = 4096;

/// The result of a capped P-semiflow enumeration: the laws found plus
/// whether the enumeration is incomplete.  A truncated enumeration is still
/// *sound* (every returned law is genuine) but no longer complete, so
/// consumers that reason from the *absence* of a law must check the flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiflowEnumeration {
    /// The minimal-support nonnegative laws found.
    pub laws: Vec<ConservationLaw>,
    /// Whether laws may be missing: the row cap cut a column short, or an
    /// overflowing combination was dropped.
    pub truncated: bool,
    /// Whether a combination overflowed `i128` (and was dropped).
    pub overflowed: bool,
}

/// The rows a Farkas enumeration found, and whether it is incomplete.
pub(super) struct FarkasRows {
    /// The rows found; a core's rows are zero on every annulled column.
    pub(super) rows: Vec<Vec<i128>>,
    /// Rows may be missing: the row cap cut a column short, or an
    /// overflowing combination was dropped.
    pub(super) truncated: bool,
    /// A combination overflowed `i128` and was dropped.
    pub(super) overflowed: bool,
}

/// A Farkas core: annuls the first `annul` columns of a table whose rows are
/// `[constraint part | nonnegative payload]`, holding at most `max_rows`
/// rows per column.
pub(super) type FarkasCore = fn(Vec<Vec<i128>>, usize, usize) -> FarkasRows;

/// The double-description Farkas core.  Rows are `[annulled part |
/// payload]`; the payload columns (everything after the first `annul`)
/// must be nonnegative, with the initial rows the unit payload vectors, so
/// every row is determined by its payload and the table starts as the
/// extreme rays of the nonnegative orthant.
///
/// Column by column, rows with a zero entry carry over, and each adjacent
/// positive/negative pair (see the module docs) contributes the primitive
/// positive combination that zeroes the column.  Since payloads are
/// nonnegative, a combination's payload support is the union of its
/// parents', so adjacency is a subset test on per-row support bitsets.
///
/// The table never needs deduplication: a row whose support equals a
/// pair's union lies inside that union and so blocks the pair, hence no two
/// rows ever share a support, even when the cap or an overflow cuts the
/// enumeration short.
pub(super) fn farkas_annul(mut table: Vec<Vec<i128>>, annul: usize, max_rows: usize) -> FarkasRows {
    let mut capped = false;
    let mut overflowed = false;
    for col in 0..annul {
        let supports = PayloadSupports::of(&table, annul);
        debug_assert!(supports.distinct(), "two Farkas rows share a support");
        let positive: Vec<usize> = (0..table.len()).filter(|&i| table[i][col] > 0).collect();
        let negative: Vec<usize> = (0..table.len()).filter(|&i| table[i][col] < 0).collect();
        let kept = table.len() - positive.len() - negative.len();
        let mut combined: Vec<Vec<i128>> = Vec::new();
        'pairs: for &p in &positive {
            for &n in &negative {
                if !supports.adjacent(p, n) {
                    continue;
                }
                if kept + combined.len() >= max_rows {
                    capped = true;
                    break 'pairs;
                }
                match combine(&table[p], &table[n], col) {
                    Some(row) => combined.push(row),
                    None => overflowed = true,
                }
            }
        }
        table.retain(|row| row[col] == 0);
        table.append(&mut combined);
    }
    FarkasRows {
        rows: table,
        truncated: capped || overflowed,
        overflowed,
    }
}

/// The positive combination `−n[col]·p + p[col]·n` (zero at `col`), divided
/// by the gcd of its entries, or `None` when an entry overflows `i128`.
fn combine(p: &[i128], n: &[i128], col: usize) -> Option<Vec<i128>> {
    let (a, b) = (n[col].checked_neg()?, p[col]);
    let mut row = p
        .iter()
        .zip(n)
        .map(|(&x, &y)| x.checked_mul(a)?.checked_add(y.checked_mul(b)?))
        .collect::<Option<Vec<i128>>>()?;
    debug_assert_eq!(row[col], 0);
    let g = row
        .iter()
        .try_fold(0i128, |acc, &w| checked_gcd_i128(acc, w))?;
    if g > 1 {
        for w in &mut row {
            *w /= g;
        }
    }
    Some(row)
}

/// The payload supports of a Farkas table as bitsets, one `words`-long run
/// of `u64`s per row.
struct PayloadSupports {
    words: usize,
    bits: Vec<u64>,
}

impl PayloadSupports {
    fn of(table: &[Vec<i128>], annul: usize) -> Self {
        let width = table.first().map_or(0, |row| row.len() - annul);
        let words = width.div_ceil(64).max(1);
        let mut bits = vec![0u64; table.len() * words];
        for (row, out) in table.iter().zip(bits.chunks_exact_mut(words)) {
            for (j, &w) in row[annul..].iter().enumerate() {
                if w != 0 {
                    out[j / 64] |= 1 << (j % 64);
                }
            }
        }
        PayloadSupports { words, bits }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Whether no two rows share a support.
    fn distinct(&self) -> bool {
        let mut seen = HashSet::new();
        self.bits
            .chunks_exact(self.words)
            .all(|sup| seen.insert(sup))
    }

    /// Whether rows `p` and `n` are adjacent: no third row's support lies
    /// inside the union of theirs.
    fn adjacent(&self, p: usize, n: usize) -> bool {
        let (sp, sn) = (self.row(p), self.row(n));
        let inside_union = |sup: &[u64]| {
            sup.iter()
                .zip(sp.iter().zip(sn))
                .all(|(&s, (&x, &y))| s & !(x | y) == 0)
        };
        !self
            .bits
            .chunks_exact(self.words)
            .enumerate()
            .any(|(r, sup)| r != p && r != n && inside_union(sup))
    }
}

/// Minimal-support nonnegative conservation laws (P-semiflows) by the Farkas
/// algorithm, capped at `max_rows` rows per column, with the truncation
/// flag surfaced.
///
/// Starting from `[N | I]` (one row per species), each reaction column is
/// annulled in turn by the double-description core; the identity half of
/// the surviving rows are exactly the minimal-support nonnegative laws.
/// Truncation only loses laws, it never fabricates one.
#[must_use]
pub fn nonnegative_laws_capped(stoich: &Stoichiometry, max_rows: usize) -> SemiflowEnumeration {
    semiflows_with(stoich, max_rows, farkas_annul)
}

/// [`nonnegative_laws_capped`] on the Farkas core `core`.
fn semiflows_with(
    stoich: &Stoichiometry,
    max_rows: usize,
    core: FarkasCore,
) -> SemiflowEnumeration {
    let species = stoich.stride();
    let reactions = stoich.reaction_count();
    // Each row is [reaction part (length R) | species weights (length S)].
    let table: Vec<Vec<i128>> = (0..species)
        .map(|s| {
            let mut row = vec![0i128; reactions + species];
            for (r, cell) in row[..reactions].iter_mut().enumerate() {
                *cell = i128::from(stoich.entry(s, r));
            }
            row[reactions + s] = 1;
            row
        })
        .collect();

    let farkas = core(table, reactions, max_rows);

    let mut laws: Vec<ConservationLaw> = farkas
        .rows
        .into_iter()
        .filter_map(|row| ConservationLaw::primitive(row[reactions..].to_vec()))
        .collect();
    laws.sort_by(|a, b| a.weights().cmp(b.weights()));
    laws.dedup();
    SemiflowEnumeration {
        laws,
        truncated: farkas.truncated,
        overflowed: farkas.overflowed,
    }
}

/// [`nonnegative_laws_capped`] without the truncation flag, for callers that
/// only consume the laws positively (a found law is always genuine).
#[must_use]
pub fn nonnegative_laws(stoich: &Stoichiometry, max_rows: usize) -> Vec<ConservationLaw> {
    nonnegative_laws_capped(stoich, max_rows).laws
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::bounds::monotone_potentials;
    use crate::compiled::CompiledCrn;
    use crate::crn::Crn;
    use crate::examples;
    use crate::reaction::Reaction;
    use crate::species::Species;

    fn stoich(crn: &Crn) -> Stoichiometry {
        Stoichiometry::of(&CompiledCrn::compile(crn))
    }

    /// Every law must annihilate every reaction column exactly.
    fn assert_laws_hold(laws: &[ConservationLaw], n: &Stoichiometry) {
        for law in laws {
            for r in 0..n.reaction_count() {
                let dot: i128 = (0..n.stride())
                    .map(|s| law.weight(s) * i128::from(n.entry(s, r)))
                    .sum();
                assert_eq!(dot, 0, "law {:?} broken by reaction {r}", law.weights());
            }
        }
    }

    #[test]
    fn max_crn_has_a_two_dimensional_law_space() {
        let max = examples::max_crn();
        let n = stoich(max.crn());
        let basis = conservation_basis(&n);
        // 6 species (X1 Z1 Y X2 Z2 K), 4 independent reactions ⇒ 2 basis laws.
        assert_laws_hold(&basis, &n);
        assert_eq!(basis.len(), 2);
        // The basis separates I_(2,3) from the pure target {Y: 5}: the
        // overshoot configuration is refuted without exploration.
        let crn = max.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut source = vec![0u64; n.stride()];
        source[idx("X1")] = 2;
        source[idx("X2")] = 3;
        let mut target = vec![0u64; n.stride()];
        target[idx("Y")] = 5;
        assert!(basis.iter().any(|law| law.refutes(&source, &target)));
    }

    #[test]
    fn min_crn_semiflows_are_the_two_joins() {
        // X1 + X2 -> Y: minimal semiflows are X1 + Y and X2 + Y.
        let min = examples::min_crn();
        let n = stoich(min.crn());
        let laws = nonnegative_laws(&n, FARKAS_ROW_CAP);
        assert_laws_hold(&laws, &n);
        assert_eq!(laws.len(), 2);
        assert!(laws.iter().all(ConservationLaw::is_nonnegative));
        let names: Vec<String> = laws
            .iter()
            .map(|law| law.display(min.crn().species()))
            .collect();
        assert!(names.contains(&"X1 + Y".to_owned()), "{names:?}");
        assert!(names.contains(&"X2 + Y".to_owned()), "{names:?}");
    }

    #[test]
    fn untouched_species_get_unit_laws() {
        let mut crn = Crn::new();
        crn.add_species("A");
        crn.add_species("B");
        crn.parse_reaction("A -> 2A").unwrap();
        let n = stoich(&crn);
        let basis = conservation_basis(&n);
        // A -> 2A admits no law on A; B is untouched so e_B is a law.
        assert_laws_hold(&basis, &n);
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0].display(crn.species()), "B");
    }

    #[test]
    fn weighted_law_of_the_starved_output() {
        // L -> W ; 2W -> Y: the semiflow L + W + 2Y bounds Y by floor(1/2)=0.
        let mut crn = Crn::new();
        crn.parse_reaction("L -> W").unwrap();
        crn.parse_reaction("2W -> Y").unwrap();
        let n = stoich(&crn);
        let laws = nonnegative_laws(&n, FARKAS_ROW_CAP);
        assert_laws_hold(&laws, &n);
        assert_eq!(laws.len(), 1);
        assert_eq!(laws[0].display(crn.species()), "L + W + 2Y");
        let l = crn.species_named("L").unwrap().index();
        let mut init = vec![0u64; n.stride()];
        init[l] = 1;
        assert_eq!(laws[0].weigh(&init), Some(1));
    }

    #[test]
    fn display_renders_signs_and_magnitudes() {
        let law = ConservationLaw {
            weights: vec![-1, 0, 3],
        };
        let mut set = SpeciesSet::new();
        set.intern("A");
        set.intern("B");
        set.intern("C");
        assert_eq!(law.display(&set), "-A + 3C");
        let zero = ConservationLaw { weights: vec![0] };
        assert_eq!(zero.display(&set), "0");
    }

    #[test]
    fn weigh_tolerates_mismatched_lengths() {
        let law = ConservationLaw {
            weights: vec![1, 2],
        };
        assert_eq!(law.weigh(&[3]), Some(3));
        assert_eq!(law.weigh(&[3, 1, 9]), Some(5));
        assert_eq!(law.weight(7), 0);
    }

    #[test]
    fn an_overflowing_weighing_refutes_nothing() {
        let law = ConservationLaw {
            weights: vec![1 << 100, 1],
        };
        assert_eq!(law.weigh(&[u64::MAX, 0]), None);
        assert!(!law.refutes(&[u64::MAX, 0], &[0, 0]));
        assert!(law.refutes(&[1, 0], &[0, 0]));
    }

    #[test]
    fn a_tiny_row_cap_surfaces_truncation() {
        // min's Farkas run needs two rows at its one column; a cap of one
        // row cannot hold them, and the flag must say so instead of silently
        // narrowing the law set.
        let min = examples::min_crn();
        let n = stoich(min.crn());
        let full = nonnegative_laws_capped(&n, FARKAS_ROW_CAP);
        assert!(!full.truncated);
        assert_eq!(full.laws.len(), 2);
        let cut = nonnegative_laws_capped(&n, 1);
        assert!(cut.truncated);
        assert!(!cut.overflowed);
        assert!(cut.laws.len() < full.laws.len());
        // Whatever survives the cap is still a genuine law.
        assert_laws_hold(&cut.laws, &n);
    }

    #[test]
    fn no_reactions_means_all_unit_laws() {
        let mut crn = Crn::new();
        crn.add_species("A");
        crn.add_species("B");
        let n = stoich(&crn);
        assert_eq!(conservation_basis(&n).len(), 2);
        assert_eq!(nonnegative_laws(&n, FARKAS_ROW_CAP).len(), 2);
    }

    /// `A -> 2^32 B -> 2^64 C -> 2^96 D -> 2^128 E` (per unit of `A`): the
    /// only law weighs `A` at 2^128, which does not fit `i128`.
    fn overflow_chain() -> Crn {
        let mut crn = Crn::new();
        for reaction in [
            "A -> 4294967296B",
            "B -> 4294967296C",
            "C -> 4294967296D",
            "D -> 4294967296E",
        ] {
            crn.parse_reaction(reaction).unwrap();
        }
        crn
    }

    #[test]
    fn an_overflowing_law_is_dropped_not_wrapped() {
        // Wrapping 2^128 to 0 would fabricate the law
        // E + 2^96 B + 2^64 C + 2^32 D.
        let n = stoich(&overflow_chain());
        let (basis, complete) = checked_basis(&n);
        assert!(basis.is_empty());
        assert!(!complete);
        let semiflows = nonnegative_laws_capped(&n, FARKAS_ROW_CAP);
        assert!(semiflows.laws.is_empty());
        assert!(semiflows.truncated);
        assert!(semiflows.overflowed);
    }

    #[test]
    fn a_complete_basis_reports_itself_complete() {
        let n = stoich(examples::max_crn().crn());
        let (basis, complete) = checked_basis(&n);
        assert!(complete);
        assert_eq!(basis, conservation_basis(&n));
    }

    /// The classical quadratic Farkas loop, the differential oracle of
    /// [`farkas_annul`]: every positive/negative pair is combined,
    /// duplicates are found by linear scan, and non-minimal payload supports
    /// are filtered out at the end.  Unchecked arithmetic: callers keep
    /// coefficients small.
    fn farkas_annul_quadratic(
        mut table: Vec<Vec<i128>>,
        annul: usize,
        max_rows: usize,
    ) -> FarkasRows {
        let mut truncated = false;
        for col in 0..annul {
            let (zero, nonzero): (Vec<_>, Vec<_>) = table.drain(..).partition(|row| row[col] == 0);
            let mut next = zero;
            let positive: Vec<&Vec<i128>> = nonzero.iter().filter(|row| row[col] > 0).collect();
            let negative: Vec<&Vec<i128>> = nonzero.iter().filter(|row| row[col] < 0).collect();
            'pairs: for p in &positive {
                for n in &negative {
                    let a = -n[col];
                    let b = p[col];
                    let mut combined: Vec<i128> = p
                        .iter()
                        .zip(n.iter())
                        .map(|(&x, &y)| a * x + b * y)
                        .collect();
                    let g = combined
                        .iter()
                        .fold(0i128, |acc, &w| crn_numeric::gcd_i128(acc, w));
                    if g > 1 {
                        for w in &mut combined {
                            *w /= g;
                        }
                    }
                    if !next.contains(&combined) {
                        next.push(combined);
                    }
                    if next.len() >= max_rows {
                        truncated = true;
                        break 'pairs;
                    }
                }
            }
            table = next;
        }
        let supports: Vec<Vec<bool>> = table
            .iter()
            .map(|row| row[annul..].iter().map(|&w| w != 0).collect())
            .collect();
        let strictly_inside = |inner: &[bool], outer: &[bool]| {
            inner.iter().zip(outer).all(|(&i, &o)| !i || o) && inner != outer
        };
        let rows = table
            .into_iter()
            .enumerate()
            .filter(|(i, _)| {
                !supports
                    .iter()
                    .any(|other| strictly_inside(other, &supports[*i]))
            })
            .map(|(_, row)| row)
            .collect();
        FarkasRows {
            rows,
            truncated,
            overflowed: false,
        }
    }

    /// A CRN over `A`–`D` from sampled stoichiometries: each row is four
    /// reactant counts then four product counts.
    fn sampled_crn(rows: &[Vec<u64>]) -> Crn {
        let mut crn = Crn::new();
        let species: Vec<Species> = ["A", "B", "C", "D"]
            .iter()
            .map(|name| crn.add_species(name))
            .collect();
        for row in rows {
            let side = |counts: &[u64]| -> Vec<(Species, u64)> {
                species
                    .iter()
                    .copied()
                    .zip(counts.iter().copied())
                    .collect()
            };
            crn.add_reaction(Reaction::new(side(&row[0..4]), side(&row[4..8])));
        }
        crn
    }

    /// `Σ_s v(s)·N[s][r]` for every reaction `r` under checked arithmetic.
    fn checked_products(v: &[i128], n: &Stoichiometry) -> Vec<i128> {
        (0..n.reaction_count())
            .map(|r| {
                (0..n.stride()).fold(0i128, |sum, s| {
                    let term = v[s]
                        .checked_mul(i128::from(n.entry(s, r)))
                        .expect("product fits i128");
                    sum.checked_add(term).expect("sum fits i128")
                })
            })
            .collect()
    }

    /// The core and the quadratic oracle agree on P-semiflows, T-semiflows
    /// and both potential cones whenever the oracle runs to completion, and
    /// everything the core returns is genuine.
    fn core_matches_oracle(crn: &Crn) {
        const ORACLE_CAP: usize = 256;
        let n = stoich(crn);
        let t = n.transposed();
        for (matrix, name) in [(&n, "P"), (&t, "T")] {
            let fast = semiflows_with(matrix, FARKAS_ROW_CAP, farkas_annul);
            for law in &fast.laws {
                assert!(law.is_nonnegative());
                assert!(checked_products(law.weights(), matrix)
                    .iter()
                    .all(|&d| d == 0));
            }
            let slow = semiflows_with(matrix, ORACLE_CAP, farkas_annul_quadratic);
            if !slow.truncated {
                assert!(!fast.truncated, "{name}-semiflows truncated");
                assert_eq!(&fast.laws, &slow.laws, "{}-semiflows", name);
            }
        }
        for sign in [1i128, -1] {
            let fast = monotone_potentials(&n, sign, FARKAS_ROW_CAP, farkas_annul);
            for v in &fast.rows {
                assert!(v.iter().all(|&w| w >= 0));
                assert!(checked_products(v, &n).iter().all(|&d| sign * d <= 0));
            }
            let slow = monotone_potentials(&n, sign, ORACLE_CAP, farkas_annul_quadratic);
            if !slow.truncated {
                assert!(!fast.truncated, "cone {sign} truncated");
                assert_eq!(&fast.rows, &slow.rows, "cone {}", sign);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn double_description_matches_the_quadratic_oracle(
            rows in proptest::collection::vec(proptest::collection::vec(0u64..3, 8), 1..7),
        ) {
            core_matches_oracle(&sampled_crn(&rows));
        }

        /// Forced-acyclic CRNs: every kept reaction strictly lowers the
        /// positive weighting `A + 2B + 3C + D`, so there are no T-semiflows
        /// and every species is covered by that decreasing potential.
        #[test]
        fn double_description_matches_the_quadratic_oracle_on_acyclic_crns(
            rows in proptest::collection::vec(proptest::collection::vec(0u64..3, 8), 1..8),
        ) {
            let weight = |c: &[u64]| c[0] + 2 * c[1] + 3 * c[2] + c[3];
            let kept: Vec<Vec<u64>> = rows
                .into_iter()
                .filter(|row| weight(&row[4..8]) < weight(&row[0..4]))
                .collect();
            core_matches_oracle(&sampled_crn(&kept));
        }
    }
}
