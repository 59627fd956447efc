//! Output checks every run applies outside its timed regions.

use fastz_align::{Alignment, EditOp};
use fastz_genome::{Scoring, Sequence};

/// Number of alignments that are not structurally consistent, do not
/// rescore to their own score, or fall below the gapped threshold.
pub fn bad_alignments(
    alignments: &[Alignment],
    target: &Sequence,
    query: &Sequence,
    scoring: &Scoring,
) -> usize {
    alignments
        .iter()
        .filter(|a| {
            !a.is_consistent(target, query)
                || a.rescore(target, query, scoring) != a.score
                || a.score < scoring.gapped_threshold
        })
        .count()
}

/// FNV-1a over every alignment's coordinates, score and edit script.
pub fn checksum(alignments: &[Alignment]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for a in alignments {
        eat(a.target_start as u64);
        eat(a.target_end as u64);
        eat(a.query_start as u64);
        eat(a.query_end as u64);
        eat(a.score as i64 as u64);
        for op in &a.ops {
            let (tag, n) = match *op {
                EditOp::Diag(n) => (1u64, n),
                EditOp::GapQ(n) => (2, n),
                EditOp::GapT(n) => (3, n),
            };
            eat(tag << 32 | n as u64);
        }
    }
    h
}
