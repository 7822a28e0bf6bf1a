//! Master/worker wiring of the simulated platform.
//!
//! The paper's model is a star: one master serving every worker directly
//! ([`Topology::Flat`]). [`Topology::Tree`] adds one level of hierarchy: a
//! root partitions the task grid across `submasters` sub-masters (using the
//! optimal static column partition as the top-level split) and each
//! sub-master runs any flat strategy over its shard — see
//! [`crate::tree::run_tree_with`] for the execution semantics.

/// How the master/worker platform is wired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Topology {
    /// A single master serving every worker directly — the paper's model
    /// and the default.
    #[default]
    Flat,
    /// Two-level hierarchy: the root splits the task grid across
    /// `submasters` sub-masters; each serves a contiguous slice of the
    /// workers. With `submasters == 1` the tree collapses to [`Flat`]
    /// (bit-for-bit identical results).
    ///
    /// [`Flat`]: Topology::Flat
    Tree {
        /// Number of sub-masters (`1 ≤ submasters ≤ workers`).
        submasters: usize,
    },
}

impl Topology {
    /// `true` for the single-master star.
    pub fn is_flat(&self) -> bool {
        matches!(self, Topology::Flat)
    }

    /// Number of sub-masters the root fans out to (`1` for the flat
    /// topology, which is its own sub-master).
    pub fn submasters(&self) -> usize {
        match *self {
            Topology::Flat => 1,
            Topology::Tree { submasters } => submasters,
        }
    }

    /// Short scenario label (`"flat"` / `"tree"`).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Flat => "flat",
            Topology::Tree { .. } => "tree",
        }
    }

    /// Checks the topology against a platform of `workers` processors: a
    /// tree needs at least one sub-master and at least one worker per
    /// sub-master.
    pub fn validate(&self, workers: usize) -> Result<(), String> {
        match *self {
            Topology::Flat => Ok(()),
            Topology::Tree { submasters } => {
                if submasters == 0 {
                    return Err("tree topology needs at least one sub-master".into());
                }
                if submasters > workers {
                    return Err(format!(
                        "tree topology with {submasters} sub-masters needs at least \
                         {submasters} workers, platform has {workers}"
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_default_and_valid() {
        assert_eq!(Topology::default(), Topology::Flat);
        assert!(Topology::Flat.is_flat());
        assert_eq!(Topology::Flat.submasters(), 1);
        assert_eq!(Topology::Flat.name(), "flat");
        assert!(Topology::Flat.validate(1).is_ok());
    }

    #[test]
    fn tree_validation() {
        let t = Topology::Tree { submasters: 3 };
        assert!(!t.is_flat());
        assert_eq!(t.submasters(), 3);
        assert_eq!(t.name(), "tree");
        assert!(t.validate(3).is_ok());
        assert!(t.validate(10).is_ok());
        assert!(t.validate(2).is_err(), "more sub-masters than workers");
        assert!(Topology::Tree { submasters: 0 }.validate(4).is_err());
    }
}
