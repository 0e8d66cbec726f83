//! Conservation laws: integer P-invariants of the stoichiometry matrix.
//!
//! A weight vector `v ∈ Z^S` is a *conservation law* when `v·N = 0` for the
//! stoichiometry matrix `N` — firing any reaction leaves `v·c` unchanged, so
//! `v·c` is constant along every trajectory.  [`nonnegative_laws`] computes
//! the minimal-support nonnegative laws (P-semiflows) by the Farkas
//! construction, with exact, overflow-checked `i128` arithmetic (no floating
//! point anywhere).  Nonnegative laws bound species counts
//! (`v(s)·c(s) ≤ v·c₀` for all `s`), which is what the `C005`
//! output-starvation lint consumes.  A basis of the full signed law space is
//! `crn_geometry::QMatrix::nullspace_basis` of the reaction × species delta
//! matrix; no analysis here needs one.
//!
//! The Farkas construction is one double-description core, shared with the
//! T-semiflows and the decreasing monotone-potential cone (Motzkin et al.
//! 1953; Fukuda & Prodon 1996).  Each row of its table carries a nonnegative
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

use crn_numeric::{checked_gcd_i128, gcd_i128};

use crate::species::SpeciesSet;

use super::stoichiometry::Stoichiometry;

/// An integer conservation law: weights `v` with `v·N = 0`, stored as one
/// weight per dense species index and kept *primitive* (the gcd of the
/// weights is 1).
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
fn weigh(v: &[i128], counts: &[u64]) -> Option<i128> {
    v.iter().zip(counts).try_fold(0i128, |sum, (&w, &c)| {
        sum.checked_add(w.checked_mul(i128::from(c))?)
    })
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

/// One row of a Farkas table: its nonzero entries as `(column, value)`
/// pairs in ascending column order.
pub(super) type FarkasRow = Vec<(usize, i128)>;

/// The rows a Farkas enumeration found, and whether it is incomplete.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct FarkasRows<Row = FarkasRow> {
    /// The rows found; a core's rows are zero on every annulled column.
    pub(super) rows: Vec<Row>,
    /// Rows may be missing: the row cap cut a column short, or an
    /// overflowing combination was dropped.
    pub(super) truncated: bool,
    /// A combination overflowed `i128` and was dropped.
    pub(super) overflowed: bool,
}

/// A Farkas core: annuls the first `annul` columns of a table whose rows are
/// `[constraint part | nonnegative payload]`, holding at most `max_rows`
/// rows per column.
pub(super) type FarkasCore = fn(Vec<FarkasRow>, usize, usize) -> FarkasRows;

/// The double-description Farkas core.  Rows are `[annulled part |
/// payload]`; the payload columns (everything from `annul` on) must be
/// nonnegative, with the initial rows the unit payload vectors, so every
/// row is determined by its payload and the table starts as the extreme
/// rays of the nonnegative orthant.
///
/// Column by column, rows with a zero entry carry over, and each adjacent
/// positive/negative pair (see the module docs) contributes the primitive
/// positive combination that zeroes the column.  Since payloads are
/// nonnegative, a combination's payload support is the union of its
/// parents', so each row's support bitset is computed once, from the table
/// or as that union, and adjacency is a subset test on the bitsets.
///
/// Rows are sparse.  Every column before the one being annulled is zero in
/// every row, so a row's entry at that column is its first entry, if any.
///
/// The table never needs deduplication: a row whose support equals a
/// pair's union lies inside that union and so blocks the pair, hence no two
/// rows ever share a support, even when the cap or an overflow cuts the
/// enumeration short.
pub(super) fn farkas_annul(mut table: Vec<FarkasRow>, annul: usize, max_rows: usize) -> FarkasRows {
    let mut capped = false;
    let mut overflowed = false;
    let mut supports = PayloadSupports::of(&table, annul);
    for col in 0..annul {
        debug_assert!(supports.distinct(), "two Farkas rows share a support");
        let lead = |row: &FarkasRow| match row.first() {
            Some(&(c, v)) if c == col => v,
            _ => 0,
        };
        let positive: Vec<usize> = (0..table.len()).filter(|&i| lead(&table[i]) > 0).collect();
        let negative: Vec<usize> = (0..table.len()).filter(|&i| lead(&table[i]) < 0).collect();
        let kept = table.len() - positive.len() - negative.len();
        let mut combined: Vec<FarkasRow> = Vec::new();
        let mut combined_supports = Vec::new();
        'pairs: for &p in &positive {
            for &n in &negative {
                if !supports.adjacent(p, n) {
                    continue;
                }
                if kept + combined.len() >= max_rows {
                    capped = true;
                    break 'pairs;
                }
                match combine(&table[p], &table[n]) {
                    Some(row) => {
                        combined.push(row);
                        supports.union_into(p, n, &mut combined_supports);
                    }
                    None => overflowed = true,
                }
            }
        }
        let zero: Vec<bool> = table.iter().map(|row| lead(row) == 0).collect();
        supports.retain(&zero);
        supports.bits.append(&mut combined_supports);
        let mut zero = zero.into_iter();
        table.retain(|_| zero.next() == Some(true));
        table.append(&mut combined);
    }
    FarkasRows {
        rows: table,
        truncated: capped || overflowed,
        overflowed,
    }
}

/// The positive combination `−n₀·p + p₀·n` of a row `p` and a row `n` whose
/// first entries `p₀ > 0` and `n₀ < 0` sit in the column being annulled,
/// divided by the gcd of its entries.  `None` when an entry overflows
/// `i128` or is `i128::MIN`, whose magnitude the gcd cannot take; the
/// annulled entry `p₀·(−n₀) − (−n₀)·p₀` counts, though it cancels.
fn combine(p: &[(usize, i128)], n: &[(usize, i128)]) -> Option<FarkasRow> {
    let (a, b) = (n[0].1.checked_neg()?, p[0].1);
    debug_assert!(a > 0 && b > 0 && p[0].0 == n[0].0);
    scale(b, a)?;
    let (mut ps, mut ns) = (p[1..].iter().peekable(), n[1..].iter().peekable());
    let mut row = Vec::with_capacity(p.len() + n.len() - 2);
    loop {
        let entry = match (ps.peek(), ns.peek()) {
            (None, None) => break,
            (Some(&&(c, x)), Some(&&(d, y))) if c == d => {
                ps.next();
                ns.next();
                (c, scale(x, a)?.checked_add(scale(y, b)?)?)
            }
            (Some(&&(c, x)), Some(&&(d, _))) if c < d => {
                ps.next();
                (c, scale(x, a)?)
            }
            (Some(&&(c, x)), None) => {
                ps.next();
                (c, scale(x, a)?)
            }
            (_, Some(&&(d, y))) => {
                ns.next();
                (d, scale(y, b)?)
            }
        };
        if entry.1 != 0 {
            row.push(entry);
        }
    }
    // Once the gcd reaches 1 it stays there, but an `i128::MIN` entry must
    // still be rejected.
    let mut g = 0;
    for &(_, w) in &row {
        if w == i128::MIN {
            return None;
        }
        if g != 1 {
            g = gcd_i128(g, w);
        }
    }
    if g > 1 {
        for (_, w) in &mut row {
            *w = divide_exact(*w, g);
        }
    }
    Some(row)
}

/// `x·k`: one widening `i64 × i64` multiply when both fit `i64` (the
/// product then always fits `i128`), checked `i128` arithmetic otherwise.
fn scale(x: i128, k: i128) -> Option<i128> {
    match (i64::try_from(x), i64::try_from(k)) {
        (Ok(x), Ok(k)) => Some(i128::from(x) * i128::from(k)),
        _ => x.checked_mul(k),
    }
}

/// `w / g` for a divisor `g > 0` of `w`, in machine words when both fit
/// `i64`.
fn divide_exact(w: i128, g: i128) -> i128 {
    match (i64::try_from(w), i64::try_from(g)) {
        (Ok(w), Ok(g)) => i128::from(w / g),
        _ => w / g,
    }
}

/// The payload supports of a Farkas table as bitsets, one `words`-long run
/// of `u64`s per row, in row order.
struct PayloadSupports {
    words: usize,
    bits: Vec<u64>,
}

impl PayloadSupports {
    fn of(table: &[FarkasRow], annul: usize) -> Self {
        let width = table
            .iter()
            .filter_map(|row| row.last())
            .map(|&(c, _)| (c + 1).saturating_sub(annul))
            .max()
            .unwrap_or(0);
        let words = width.div_ceil(64).max(1);
        let mut bits = vec![0u64; table.len() * words];
        for (row, out) in table.iter().zip(bits.chunks_exact_mut(words)) {
            for &(c, _) in row.iter().filter(|&&(c, _)| c >= annul) {
                let j = c - annul;
                out[j / 64] |= 1 << (j % 64);
            }
        }
        PayloadSupports { words, bits }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Appends the union of rows `p` and `n` to `out`: the support of every
    /// positive combination of the two.
    fn union_into(&self, p: usize, n: usize, out: &mut Vec<u64>) {
        out.extend(self.row(p).iter().zip(self.row(n)).map(|(&x, &y)| x | y));
    }

    /// Keeps the rows `i` with `keep[i]`, in order.
    fn retain(&mut self, keep: &[bool]) {
        let words = self.words;
        let mut kept = 0;
        for (i, _) in keep.iter().enumerate().filter(|&(_, &k)| k) {
            self.bits
                .copy_within(i * words..(i + 1) * words, kept * words);
            kept += 1;
        }
        self.bits.truncate(kept * words);
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
    let farkas = core(species_rows(stoich, 1), reactions, max_rows);

    let mut laws: Vec<ConservationLaw> = farkas
        .rows
        .into_iter()
        .filter_map(|row| ConservationLaw::primitive(project(&row, reactions, species)))
        .collect();
    laws.sort_by(|a, b| a.weights().cmp(b.weights()));
    laws.dedup();
    SemiflowEnumeration {
        laws,
        truncated: farkas.truncated,
        overflowed: farkas.overflowed,
    }
}

/// The Farkas rows `[sign·N[s][·] | e_s]`, one per species: the nonzero
/// reaction entries, then a unit weight after the `R` reaction columns.
pub(super) fn species_rows(stoich: &Stoichiometry, sign: i128) -> Vec<FarkasRow> {
    let reactions = stoich.reaction_count();
    (0..stoich.stride())
        .map(|s| {
            let mut row: FarkasRow = (0..reactions)
                .filter(|&r| stoich.entry(s, r) != 0)
                .map(|r| (r, sign * i128::from(stoich.entry(s, r))))
                .collect();
            row.push((reactions + s, 1));
            row
        })
        .collect()
}

/// Columns `from..from + len` of a sparse row, as a dense vector.
pub(super) fn project(row: &[(usize, i128)], from: usize, len: usize) -> Vec<i128> {
    let mut dense = vec![0; len];
    for &(c, w) in row {
        if let Some(cell) = c.checked_sub(from).and_then(|j| dense.get_mut(j)) {
            *cell = w;
        }
    }
    dense
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
    use crate::analysis::bounds::{monotone_potentials, potential_table};
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
        // `None`, never a wrapped value two configurations could disagree
        // on.
        assert_eq!(law.weigh(&[u64::MAX, 0]), None);
        assert_eq!(law.weigh(&[1, 0]), Some(1 << 100));
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
        let semiflows = nonnegative_laws_capped(&n, FARKAS_ROW_CAP);
        assert!(semiflows.laws.is_empty());
        assert!(semiflows.truncated);
        assert!(semiflows.overflowed);
    }

    /// A sparse table as dense rows as wide as its widest column.
    fn densify(table: &[FarkasRow]) -> Vec<Vec<i128>> {
        let width = table
            .iter()
            .filter_map(|row| row.last())
            .map(|&(c, _)| c + 1)
            .max()
            .unwrap_or(0);
        table.iter().map(|row| project(row, 0, width)).collect()
    }

    /// Dense rows as sparse Farkas rows.
    fn sparsify(rows: Vec<Vec<i128>>) -> Vec<FarkasRow> {
        rows.into_iter()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .filter(|&(_, w)| w != 0)
                    .collect()
            })
            .collect()
    }

    /// The double-description core on dense `i128` rows, the differential
    /// oracle of [`farkas_annul`]: the same pairs in the same order, but
    /// every combination walks, multiplies and divides all columns with
    /// checked `i128` arithmetic and folds the gcd over every nonzero.
    fn farkas_annul_dense(table: &[FarkasRow], annul: usize, max_rows: usize) -> FarkasRows {
        let mut capped = false;
        let mut overflowed = false;
        let mut supports = PayloadSupports::of(table, annul);
        let mut table = densify(table);
        for col in 0..annul {
            let positive: Vec<usize> = (0..table.len()).filter(|&i| table[i][col] > 0).collect();
            let negative: Vec<usize> = (0..table.len()).filter(|&i| table[i][col] < 0).collect();
            let kept = table.len() - positive.len() - negative.len();
            let mut combined: Vec<Vec<i128>> = Vec::new();
            let mut combined_supports = Vec::new();
            'pairs: for &p in &positive {
                for &n in &negative {
                    if !supports.adjacent(p, n) {
                        continue;
                    }
                    if kept + combined.len() >= max_rows {
                        capped = true;
                        break 'pairs;
                    }
                    match combine_dense(&table[p], &table[n], col) {
                        Some(row) => {
                            combined.push(row);
                            supports.union_into(p, n, &mut combined_supports);
                        }
                        None => overflowed = true,
                    }
                }
            }
            let zero: Vec<bool> = table.iter().map(|row| row[col] == 0).collect();
            supports.retain(&zero);
            supports.bits.append(&mut combined_supports);
            let mut zero = zero.into_iter();
            table.retain(|_| zero.next() == Some(true));
            table.append(&mut combined);
        }
        FarkasRows {
            rows: sparsify(table),
            truncated: capped || overflowed,
            overflowed,
        }
    }

    /// [`combine`] on dense rows.
    fn combine_dense(p: &[i128], n: &[i128], col: usize) -> Option<Vec<i128>> {
        let (a, b) = (n[col].checked_neg()?, p[col]);
        let mut row = p
            .iter()
            .zip(n)
            .map(|(&x, &y)| {
                if x == 0 && y == 0 {
                    Some(0)
                } else {
                    x.checked_mul(a)?.checked_add(y.checked_mul(b)?)
                }
            })
            .collect::<Option<Vec<i128>>>()?;
        debug_assert_eq!(row[col], 0);
        let g = row
            .iter()
            .filter(|&&w| w != 0)
            .try_fold(0i128, |acc, &w| checked_gcd_i128(acc, w))?;
        if g > 1 {
            for w in &mut row {
                *w /= g;
            }
        }
        Some(row)
    }

    /// The classical quadratic Farkas loop, the differential oracle of
    /// [`farkas_annul`]: every positive/negative pair is combined,
    /// duplicates are found by linear scan, and non-minimal payload supports
    /// are filtered out at the end.  Unchecked arithmetic: callers keep
    /// coefficients small.
    fn farkas_annul_quadratic(table: &[FarkasRow], annul: usize, max_rows: usize) -> FarkasRows {
        let mut table = densify(table);
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
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                !supports
                    .iter()
                    .any(|other| strictly_inside(other, &supports[*i]))
            })
            .map(|(_, row)| row.clone())
            .collect();
        FarkasRows {
            rows: sparsify(rows),
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
            let slow = semiflows_with(matrix, ORACLE_CAP, |t, a, m| {
                farkas_annul_quadratic(&t, a, m)
            });
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
            let slow = monotone_potentials(&n, sign, ORACLE_CAP, |t, a, m| {
                farkas_annul_quadratic(&t, a, m)
            });
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

        /// On the real table shapes, with coefficients straddling 2^31 and
        /// 2^63 so that values cross the widening multiply's limit, take the
        /// checked path and overflow: the same rows in the same order and
        /// the same flags at every cap.
        #[test]
        fn sparse_core_returns_the_dense_cores_rows_on_stoichiometries(
            rows in proptest::collection::vec(proptest::collection::vec(0usize..COUNTS.len(), 8), 1..7),
            max_rows in 1usize..65,
        ) {
            let rows: Vec<Vec<u64>> = rows
                .iter()
                .map(|row| row.iter().map(|&i| COUNTS[i]).collect())
                .collect();
            let n = stoich(&sampled_crn(&rows));
            let t = n.transposed();
            let tables = [
                (species_rows(&n, 1), n.reaction_count()),
                (species_rows(&t, 1), t.reaction_count()),
                (potential_table(&n, 1), n.reaction_count()),
                (potential_table(&n, -1), n.reaction_count()),
            ];
            for (table, annul) in tables {
                assert_eq!(
                    farkas_annul(table.clone(), annul, max_rows),
                    farkas_annul_dense(&table, annul, max_rows)
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Tables with raw `i128` entries up to the overflow edge, `i128::MIN`
        /// included, which no stoichiometry reaches directly.  Each case
        /// draws its entries from a prefix of [`EDGES`] of sampled length.
        #[test]
        fn sparse_core_returns_the_dense_cores_rows_on_edge_tables(
            constraints in proptest::collection::vec(proptest::collection::vec(0usize..EDGES.len(), 4), 1..9),
            prefix in 8usize..EDGES.len() + 1,
            max_rows in 1usize..65,
        ) {
            let table: Vec<FarkasRow> = constraints
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let mut sparse: FarkasRow = row
                        .iter()
                        .map(|&e| EDGES[e % prefix])
                        .enumerate()
                        .filter(|&(_, w)| w != 0)
                        .collect();
                    sparse.push((4 + i, 1));
                    sparse
                })
                .collect();
            assert_eq!(
                farkas_annul(table.clone(), 4, max_rows),
                farkas_annul_dense(&table, 4, max_rows)
            );
        }
    }

    /// Reactant and product counts for sampled stoichiometries: mostly
    /// small, some at ±2^31 and up to `i64::MAX`, so net changes reach the
    /// `i64` limits of the widening multiply.
    const COUNTS: [u64; 12] = [
        0,
        0,
        0,
        0,
        1,
        1,
        2,
        3,
        (1 << 31) - 1,
        1 << 31,
        (1 << 31) + 1,
        i64::MAX as u64,
    ];

    /// Raw table entries: mostly small, and at the edges the arithmetic
    /// switches on: ±2^31; ±2^63 and ±(2^64 − 1), where the widening
    /// multiply stops; 2^64 and 2^100, which only the checked path takes;
    /// ±2^126, whose sums leave `i128`; and `i128::MAX`, `i128::MIN`.  The
    /// first eight concentrate on a gcd of 1 next to `i128::MIN`.
    const EDGES: [i128; 28] = [
        0,
        0,
        0,
        1,
        -1,
        1,
        -1,
        i128::MIN,
        0,
        0,
        2,
        -2,
        3,
        -6,
        1 << 31,
        -(1 << 31),
        i64::MAX as i128,
        i64::MIN as i128,
        1 << 63,
        -(1 << 63) - 1,
        u64::MAX as i128,
        -(u64::MAX as i128),
        1 << 64,
        1 << 100,
        -(1 << 100),
        (1 << 126) + 1,
        -(1 << 126),
        i128::MAX,
    ];

    #[test]
    fn a_min_entry_is_rejected_after_the_gcd_reaches_one() {
        // The combination is (0, 1, i128::MIN, 1, 1): its gcd is 1 from the
        // first entry on, yet i128::MIN has no magnitude and must drop it.
        let table = vec![
            vec![(0, 1), (1, 1), (2, i128::MIN), (3, 1)],
            vec![(0, -1), (4, 1)],
        ];
        assert_eq!(combine(&table[0], &table[1]), None);
        let rows = farkas_annul(table.clone(), 1, FARKAS_ROW_CAP);
        assert_eq!(rows, farkas_annul_dense(&table, 1, FARKAS_ROW_CAP));
        assert!(rows.rows.is_empty() && rows.truncated && rows.overflowed);
    }

    #[test]
    fn combinations_divide_by_the_gcd_in_both_widths() {
        // 2·p + 2·n = (0, 12, 2^65, 12): the gcd 4 divides out, in machine
        // words below 2^63 and in i128 above it.
        let p = vec![(0, 2), (1, 4), (2, 1 << 64)];
        let n = vec![(0, -2), (1, 2), (3, 6)];
        assert_eq!(combine(&p, &n), Some(vec![(1, 3), (2, 1 << 63), (3, 3)]));
        // A gcd of 2^63 does not fit i64 even though -2^63 does.
        let p = vec![(0, 1), (1, i128::from(i64::MIN))];
        let n = vec![(0, -1), (2, i128::from(i64::MIN))];
        assert_eq!(combine(&p, &n), Some(vec![(1, -1), (2, -1)]));
    }
}
