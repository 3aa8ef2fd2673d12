//! Deterministic stride sharding of an attacker pool.
//!
//! Shard `k` of `n` takes pool positions `k, k+n, k+2n, …` — the same
//! stride discipline [`ExperimentConfig::attacker_stride`] applies to the
//! pool itself, so the union of all shards is the single-node pool
//! *exactly*, with no rounding seam at the end. Because every sweep row
//! is a pure function of (topology, target, attacker, defense) and rows
//! are mutually independent (the contract
//! [`Simulator::sweep_chunk_monitored`] documents), re-interleaving the
//! per-shard rows positionally reproduces the single-node result bit for
//! bit. The partition arm of the root package's `differential` test pins
//! that equivalence across random topologies, both sweep routes (race
//! and baseline replay), and both routing policies.
//!
//! [`ExperimentConfig::attacker_stride`]: bgpsim_core::ExperimentConfig
//! [`Simulator::sweep_chunk_monitored`]: bgpsim_hijack::Simulator::sweep_chunk_monitored

/// A stride partition of `pool_len` work items into `num_shards` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Items in the pool being partitioned.
    pub pool_len: usize,
    /// Shards the pool is split into (at least 1, at most `pool_len`
    /// for a non-empty pool).
    pub num_shards: usize,
}

impl ShardPlan {
    /// Plans `num_shards` stride shards over a pool of `pool_len` items.
    /// The shard count is clamped to `[1, pool_len]` (an empty pool plans
    /// one empty shard) so no shard is ever empty.
    pub fn new(pool_len: usize, num_shards: usize) -> ShardPlan {
        ShardPlan {
            pool_len,
            num_shards: num_shards.clamp(1, pool_len.max(1)),
        }
    }

    /// Number of items in shard `k`: positions `k, k+n, …` below
    /// `pool_len`.
    pub fn shard_len(&self, k: usize) -> usize {
        assert!(k < self.num_shards, "shard {k} out of {}", self.num_shards);
        (self.pool_len - k).div_ceil(self.num_shards)
    }

    /// The members of shard `k`, copied out of `pool` in stride order.
    ///
    /// # Panics
    ///
    /// Panics if `pool.len()` disagrees with the planned `pool_len` or
    /// `k` is out of range.
    pub fn members<T: Copy>(&self, pool: &[T], k: usize) -> Vec<T> {
        assert_eq!(pool.len(), self.pool_len, "pool changed since planning");
        assert!(k < self.num_shards, "shard {k} out of {}", self.num_shards);
        pool.iter()
            .copied()
            .skip(k)
            .step_by(self.num_shards)
            .collect()
    }

    /// Re-interleaves per-shard result rows back into pool order.
    ///
    /// `shard_rows[k][j]` answers pool position `k + j * num_shards`, so
    /// the merged vector is positionally — and therefore byte- —
    /// identical to a single-node sweep of the whole pool.
    ///
    /// # Errors
    ///
    /// Rejects a result set with the wrong shard count or a shard whose
    /// row count disagrees with the plan (a truncated or duplicated
    /// worker answer must never be silently accepted).
    pub fn merge(&self, shard_rows: &[Vec<u32>]) -> Result<Vec<u32>, String> {
        if shard_rows.len() != self.num_shards {
            return Err(format!(
                "merge got {} shard results, planned {}",
                shard_rows.len(),
                self.num_shards
            ));
        }
        let mut out = vec![0u32; self.pool_len];
        for (k, rows) in shard_rows.iter().enumerate() {
            if rows.len() != self.shard_len(k) {
                return Err(format!(
                    "shard {k} returned {} rows, expected {}",
                    rows.len(),
                    self.shard_len(k)
                ));
            }
            for (j, &row) in rows.iter().enumerate() {
                out[k + j * self.num_shards] = row;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_the_pool_exactly_once() {
        for pool_len in [0usize, 1, 2, 7, 64, 65] {
            let pool: Vec<usize> = (0..pool_len).collect();
            for n in [1usize, 2, 3, 7, 100] {
                let plan = ShardPlan::new(pool_len, n);
                let mut seen = vec![0u32; pool_len];
                for k in 0..plan.num_shards {
                    let members = plan.members(&pool, k);
                    assert_eq!(members.len(), plan.shard_len(k));
                    for m in members {
                        seen[m] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "pool_len={pool_len} n={n}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn no_planned_shard_is_empty() {
        for pool_len in [1usize, 2, 3, 8] {
            for n in [1usize, 2, 5, 16] {
                let plan = ShardPlan::new(pool_len, n);
                for k in 0..plan.num_shards {
                    assert!(plan.shard_len(k) > 0, "pool_len={pool_len} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn merge_reassembles_positionally() {
        let pool: Vec<u32> = (100..123).collect();
        let plan = ShardPlan::new(pool.len(), 3);
        let rows: Vec<Vec<u32>> = (0..plan.num_shards)
            // Pretend the sweep's answer is the attacker id itself, so the
            // merged vector must be the pool verbatim.
            .map(|k| plan.members(&pool, k))
            .collect();
        assert_eq!(plan.merge(&rows).unwrap(), pool);
    }

    #[test]
    fn merge_rejects_malformed_results() {
        let plan = ShardPlan::new(5, 2);
        assert!(plan.merge(&[vec![1, 2, 3]]).is_err(), "missing shard");
        assert!(
            plan.merge(&[vec![1, 2, 3], vec![4]]).is_err(),
            "short shard"
        );
        assert!(
            plan.merge(&[vec![1, 2, 3], vec![4, 5, 6]]).is_err(),
            "long shard"
        );
        assert_eq!(
            plan.merge(&[vec![1, 2, 3], vec![4, 5]]).unwrap(),
            vec![1, 4, 2, 5, 3]
        );
    }

    #[test]
    fn empty_pool_plans_one_empty_shard() {
        let plan = ShardPlan::new(0, 4);
        assert_eq!(plan.num_shards, 1);
        assert_eq!(plan.shard_len(0), 0);
        assert_eq!(plan.merge(&[Vec::new()]).unwrap(), Vec::<u32>::new());
    }
}
