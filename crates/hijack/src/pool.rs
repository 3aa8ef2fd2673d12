//! Cross-sweep workspace pooling.
//!
//! The vendored rayon has no work-stealing pool: `map_init` re-runs its
//! init closure once per worker on *every* parallel call. A chunked sweep
//! (the server's fair-share executor runs jobs one attacker-chunk at a
//! time) would therefore reallocate every per-thread workspace — each
//! O(ASes + slots) once warmed — per worker per chunk. At paper scale
//! (42,697 ASes, ~278k directed slots) that is tens of megabytes of
//! allocator churn per chunk before a single attack runs. A
//! [`WorkspacePool`] parks workspaces between calls instead: `map_init`
//! checks one out (creating it only the first time) and the guard returns
//! it on drop, so a sweep's thousandth chunk reuses the warmed allocations
//! of its first.
//!
//! The pool never shrinks; its high-water mark is the largest number of
//! workspaces ever live at once: one per thread inside an engine pass.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// A lock-guarded stash of reusable workspaces. The mutex is touched once
/// per checkout/return — per rayon worker per sweep call, per attack in
/// `Simulator::evaluate` — so contention is negligible next to the engine
/// pass it brackets.
#[derive(Debug, Default)]
pub(crate) struct WorkspacePool<T> {
    stash: Mutex<Vec<T>>,
}

impl<T: Default> WorkspacePool<T> {
    /// Takes a parked workspace, or creates a fresh one if the stash is
    /// empty. The guard returns it on drop — including during a panic
    /// unwind, so a poisoned run cannot leak the allocation.
    pub(crate) fn checkout(&self) -> PoolGuard<'_, T> {
        let item = lock_recover(&self.stash).pop().unwrap_or_default();
        PoolGuard {
            pool: self,
            item: Some(item),
        }
    }
}

/// Checkout handle: derefs to the workspace, returns it to the pool on
/// drop.
#[derive(Debug)]
pub(crate) struct PoolGuard<'a, T: Default> {
    pool: &'a WorkspacePool<T>,
    item: Option<T>,
}

impl<T: Default> Deref for PoolGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.item.as_ref().expect("present until drop")
    }
}

impl<T: Default> DerefMut for PoolGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("present until drop")
    }
}

impl<T: Default> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            lock_recover(&self.pool.stash).push(item);
        }
    }
}

/// Locks ignoring poison: a workspace parked by a panicking worker is
/// still structurally valid (the engines' epoch stamping makes any
/// half-written state invisible to the next run).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_items() {
        let pool: WorkspacePool<Vec<u32>> = WorkspacePool::default();
        {
            let mut a = pool.checkout();
            a.push(7);
            a.reserve(100);
        }
        // The same allocation comes back: contents intact (callers reset
        // state themselves — the engines' epoch stamps make that free).
        let b = pool.checkout();
        assert_eq!(*b, vec![7]);
        assert!(b.capacity() >= 100);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_items() {
        let pool: WorkspacePool<Vec<u32>> = WorkspacePool::default();
        let mut a = pool.checkout();
        let mut b = pool.checkout();
        a.push(1);
        b.push(2);
        assert_eq!((*a).as_slice(), &[1]);
        assert_eq!((*b).as_slice(), &[2]);
        drop(a);
        drop(b);
        assert_eq!(lock_recover(&pool.stash).len(), 2);
    }

    #[test]
    fn guard_returns_item_during_unwind() {
        let pool: WorkspacePool<Vec<u32>> = WorkspacePool::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = pool.checkout();
            g.push(9);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(lock_recover(&pool.stash).len(), 1);
    }
}
