//! Per-worker block ownership for the outer product.
//!
//! The generic index-set tracker lives in
//! [`hetsched_util::owned::OwnedSet`]; this module pairs two of them into
//! the worker's view of the `a` and `b` vectors (the paper's index sets
//! `I` and `J`).

pub use hetsched_util::OwnedSet as VectorOwnership;

/// A worker's view of both input vectors.
#[derive(Clone, Debug)]
pub struct WorkerData {
    /// Blocks of `a` on the worker (the paper's index set `I`).
    pub a: VectorOwnership,
    /// Blocks of `b` on the worker (the paper's index set `J`).
    pub b: VectorOwnership,
}

impl WorkerData {
    /// Fresh worker holding nothing.
    pub fn new(n: usize) -> Self {
        WorkerData {
            a: VectorOwnership::new(n),
            b: VectorOwnership::new(n),
        }
    }

    /// Fresh worker over a `rows × cols` task rectangle (a hierarchy
    /// shard): `a` spans the shard's rows, `b` its columns.
    pub fn rect(rows: usize, cols: usize) -> Self {
        WorkerData {
            a: VectorOwnership::new(rows),
            b: VectorOwnership::new(cols),
        }
    }

    /// Fraction of all `2n` input blocks this worker owns — the knowledge
    /// state the paper's ODE model evolves (`x_k` tracks `|I_k| = |J_k|`
    /// for the dynamic strategy). Probes report it per sample.
    pub fn knowledge_fraction(&self) -> f64 {
        let owned = self.a.count() + self.b.count();
        let total = owned + self.a.unknown_count() + self.b.unknown_count();
        owned as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_independent() {
        let mut fleet = vec![WorkerData::new(4); 3];
        fleet[0].a.acquire(1);
        assert!(fleet[0].a.owns(1));
        assert!(!fleet[1].a.owns(1));
        assert!(!fleet[0].b.owns(1));
    }

    #[test]
    fn a_and_b_are_independent_dimensions() {
        let mut w = WorkerData::new(5);
        w.a.acquire(2);
        assert!(w.a.owns(2));
        assert!(!w.b.owns(2));
        w.b.acquire(4);
        assert_eq!(w.a.count(), 1);
        assert_eq!(w.b.count(), 1);
    }
}
