//! Routing policy: route preference and valley-free export rules.
//!
//! The paper's policy model (§III):
//!
//! * **Message priority** — `LOCAL_PREF` prefers customer-learned routes
//!   over peer-learned over provider-learned; within a preference class a
//!   strictly shorter AS path wins. Tier-1 routers always accept the
//!   shortest path regardless of class ("this increased the percentage of
//!   real-world matches with RouteViews").
//! * **Propagation policy** — valley-free: customer→provider exports only
//!   own and customer routes; provider→customer exports everything;
//!   peer→peer exports own and customer routes; siblings behave as one AS.

use bgpsim_topology::Relationship;

/// Preference class of a route, ordered by `LOCAL_PREF`
/// (`Provider < Peer < Customer < Origin`).
///
/// `Origin` is the AS's own announcement — always preferred and exported to
/// every neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PrefClass {
    /// Learned from a transit provider.
    Provider = 0,
    /// Learned from a settlement-free peer.
    Peer = 1,
    /// Learned from a customer.
    Customer = 2,
    /// The AS's own prefix announcement.
    Origin = 3,
}

impl PrefClass {
    /// The preference class a route acquires when learned over a link with
    /// the given relationship (the *sender's* role from the receiver's
    /// perspective).
    ///
    /// Returns `None` for [`Relationship::Sibling`]: sibling-learned routes
    /// inherit the class the route had when it entered the organization,
    /// which the message must carry (see `export_class` in the engines).
    #[must_use]
    pub fn from_sender_rel(rel: Relationship) -> Option<PrefClass> {
        match rel {
            Relationship::Customer => Some(PrefClass::Customer),
            Relationship::Peer => Some(PrefClass::Peer),
            Relationship::Provider => Some(PrefClass::Provider),
            Relationship::Sibling => None,
        }
    }

    /// Raw discriminant, usable as an array index.
    pub const fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`PrefClass::as_u8`].
    ///
    /// # Panics
    ///
    /// Panics if `v > 3`.
    pub fn from_u8(v: u8) -> PrefClass {
        match v {
            0 => PrefClass::Provider,
            1 => PrefClass::Peer,
            2 => PrefClass::Customer,
            3 => PrefClass::Origin,
            other => panic!("invalid PrefClass discriminant {other}"),
        }
    }
}

/// Whether a route with export class `class` may be announced to a neighbor
/// with relationship `to` (the *receiver's* role from the exporter's
/// perspective).
///
/// Valley-free rules:
///
/// | route class ↓ / to → | customer | peer | provider | sibling |
/// |----------------------|----------|------|----------|---------|
/// | `Origin`             | yes      | yes  | yes      | yes     |
/// | `Customer`           | yes      | yes  | yes      | yes     |
/// | `Peer`               | yes      | no   | no       | yes     |
/// | `Provider`           | yes      | no   | no       | yes     |
#[must_use]
pub fn may_export(class: PrefClass, to: Relationship) -> bool {
    match to {
        Relationship::Customer | Relationship::Sibling => true,
        Relationship::Peer | Relationship::Provider => {
            matches!(class, PrefClass::Origin | PrefClass::Customer)
        }
    }
}

/// Engine-wide policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Tier-1 routers compare by path length first, ignoring `LOCAL_PREF`
    /// (the paper's §III refinement). Default `true`.
    pub tier1_shortest_path: bool,
    /// Hard cap on propagation generations; exceeding it is reported as
    /// non-convergence. Valley-free topologies converge well under this.
    pub max_generations: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            tier1_shortest_path: true,
            max_generations: 100,
        }
    }
}

impl PolicyConfig {
    /// The paper's configuration (tier-1 shortest-path rule on).
    pub fn paper() -> PolicyConfig {
        PolicyConfig::default()
    }

    /// Strict Gao-Rexford preference at every AS (tier-1 rule off): the
    /// textbook policy, which every engine's tests run beside the paper's.
    pub fn strict_gao_rexford() -> PolicyConfig {
        PolicyConfig {
            tier1_shortest_path: false,
            ..PolicyConfig::default()
        }
    }
}

/// Comparison key for route selection at a non-tier-1 AS: larger is better.
///
/// `tie` should be a *smaller-is-better* value folded in negated (we use
/// the neighbor slot so the lowest-index neighbor wins ties), making
/// selection order-independent and deterministic.
#[inline]
#[must_use]
pub fn standard_key(class: PrefClass, len: u16, tie_slot: u32) -> u64 {
    // class (2 bits) | !len (16 bits) | !slot (32 bits)
    ((class.as_u8() as u64) << 48) | ((!len as u64) << 32) | (!tie_slot as u64)
}

/// Comparison key at a tier-1 AS when the shortest-path rule is enabled:
/// length dominates, then class, then the tie slot.
#[inline]
#[must_use]
pub fn tier1_key(class: PrefClass, len: u16, tie_slot: u32) -> u64 {
    ((!len as u64) << 34) | ((class.as_u8() as u64) << 32) | (!tie_slot as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ordering_matches_local_pref() {
        assert!(PrefClass::Customer > PrefClass::Peer);
        assert!(PrefClass::Peer > PrefClass::Provider);
        assert!(PrefClass::Origin > PrefClass::Customer);
    }

    #[test]
    fn class_from_relationship() {
        assert_eq!(
            PrefClass::from_sender_rel(Relationship::Customer),
            Some(PrefClass::Customer)
        );
        assert_eq!(
            PrefClass::from_sender_rel(Relationship::Peer),
            Some(PrefClass::Peer)
        );
        assert_eq!(
            PrefClass::from_sender_rel(Relationship::Provider),
            Some(PrefClass::Provider)
        );
        assert_eq!(PrefClass::from_sender_rel(Relationship::Sibling), None);
    }

    #[test]
    fn u8_roundtrip() {
        for c in [
            PrefClass::Provider,
            PrefClass::Peer,
            PrefClass::Customer,
            PrefClass::Origin,
        ] {
            assert_eq!(PrefClass::from_u8(c.as_u8()), c);
        }
    }

    #[test]
    #[should_panic(expected = "invalid PrefClass")]
    fn bad_discriminant_panics() {
        let _ = PrefClass::from_u8(9);
    }

    #[test]
    fn export_matrix_is_valley_free() {
        use Relationship::*;
        // Own and customer routes go everywhere.
        for class in [PrefClass::Origin, PrefClass::Customer] {
            for to in [Customer, Peer, Provider, Sibling] {
                assert!(may_export(class, to), "{class:?} to {to:?}");
            }
        }
        // Peer/provider routes go only down (and to siblings).
        for class in [PrefClass::Peer, PrefClass::Provider] {
            assert!(may_export(class, Customer));
            assert!(may_export(class, Sibling));
            assert!(!may_export(class, Peer));
            assert!(!may_export(class, Provider));
        }
    }

    #[test]
    fn standard_key_orders_class_then_len_then_slot() {
        let a = standard_key(PrefClass::Customer, 9, 5);
        let b = standard_key(PrefClass::Peer, 1, 0);
        assert!(a > b, "class dominates length");
        let c = standard_key(PrefClass::Peer, 2, 9);
        let d = standard_key(PrefClass::Peer, 3, 0);
        assert!(c > d, "shorter wins within class");
        let e = standard_key(PrefClass::Peer, 2, 3);
        let f = standard_key(PrefClass::Peer, 2, 7);
        assert!(e > f, "lower slot wins ties");
    }

    #[test]
    fn tier1_key_orders_len_first() {
        let short_provider = tier1_key(PrefClass::Provider, 2, 9);
        let long_customer = tier1_key(PrefClass::Customer, 3, 0);
        assert!(short_provider > long_customer);
        let a = tier1_key(PrefClass::Customer, 2, 4);
        let b = tier1_key(PrefClass::Provider, 2, 4);
        assert!(a > b, "class breaks length ties");
    }

    #[test]
    fn policy_presets() {
        assert!(PolicyConfig::paper().tier1_shortest_path);
        assert!(!PolicyConfig::strict_gao_rexford().tier1_shortest_path);
    }
}
