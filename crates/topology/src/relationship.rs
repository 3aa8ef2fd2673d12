//! Business relationships between neighboring autonomous systems.
//!
//! The AS-level Internet is modeled, following Gao, as a graph whose edges
//! carry one of three business relationships: *provider/customer* (transit is
//! bought), *peer/peer* (traffic is exchanged settlement-free) and
//! *sibling/sibling* (both ASes belong to one organization). Routing policy —
//! both route preference and export rules — is a function of these labels.

use core::fmt;

/// The role a neighbor plays *from the perspective of a given AS*.
///
/// If AS `a`'s neighbor list contains `(b, Relationship::Customer)`, then `b`
/// is a customer of `a` (equivalently `a` is a provider of `b`).
///
/// # Examples
///
/// ```
/// use bgpsim_topology::Relationship;
///
/// assert_eq!(Relationship::Customer.reversed(), Relationship::Provider);
/// assert_eq!(Relationship::Peer.reversed(), Relationship::Peer);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Relationship {
    /// The neighbor buys transit from this AS.
    Customer,
    /// The neighbor exchanges traffic settlement-free with this AS.
    Peer,
    /// The neighbor sells transit to this AS.
    Provider,
    /// The neighbor belongs to the same organization as this AS.
    Sibling,
}

impl Relationship {
    /// All relationship values, in the canonical storage order
    /// (customers, then peers, then providers, then siblings).
    pub const ALL: [Relationship; 4] = [
        Relationship::Customer,
        Relationship::Peer,
        Relationship::Provider,
        Relationship::Sibling,
    ];

    /// Returns the same link seen from the other endpoint.
    #[must_use]
    pub const fn reversed(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::Sibling => Relationship::Sibling,
        }
    }

    /// Canonical sort key used to order neighbor lists deterministically.
    pub(crate) const fn order(self) -> u8 {
        match self {
            Relationship::Customer => 0,
            Relationship::Peer => 1,
            Relationship::Provider => 2,
            Relationship::Sibling => 3,
        }
    }
}

impl fmt::Display for Relationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Relationship::Customer => "customer",
            Relationship::Peer => "peer",
            Relationship::Provider => "provider",
            Relationship::Sibling => "sibling",
        };
        f.write_str(s)
    }
}

/// An undirected link kind, used when *adding* links to a
/// [`TopologyBuilder`]: the pair `(a, b)` plus the kind fully determines the
/// relationship seen from both endpoints.
///
/// [`TopologyBuilder`]: crate::TopologyBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// `a` is the provider, `b` is the customer.
    ProviderToCustomer,
    /// `a` and `b` are settlement-free peers.
    PeerToPeer,
    /// `a` and `b` are siblings in one organization.
    SiblingToSibling,
}

impl LinkKind {
    /// Relationship of `b` from `a`'s perspective.
    #[must_use]
    pub const fn rel_at_a(self) -> Relationship {
        match self {
            LinkKind::ProviderToCustomer => Relationship::Customer,
            LinkKind::PeerToPeer => Relationship::Peer,
            LinkKind::SiblingToSibling => Relationship::Sibling,
        }
    }

    /// Relationship of `a` from `b`'s perspective.
    #[must_use]
    pub const fn rel_at_b(self) -> Relationship {
        self.rel_at_a().reversed()
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::ProviderToCustomer => "p2c",
            LinkKind::PeerToPeer => "p2p",
            LinkKind::SiblingToSibling => "s2s",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversal_is_involutive() {
        for r in Relationship::ALL {
            assert_eq!(r.reversed().reversed(), r);
        }
    }

    #[test]
    fn link_kind_endpoint_views_are_consistent() {
        assert_eq!(
            LinkKind::ProviderToCustomer.rel_at_a(),
            Relationship::Customer
        );
        assert_eq!(
            LinkKind::ProviderToCustomer.rel_at_b(),
            Relationship::Provider
        );
        assert_eq!(LinkKind::PeerToPeer.rel_at_a(), Relationship::Peer);
        assert_eq!(LinkKind::PeerToPeer.rel_at_b(), Relationship::Peer);
        assert_eq!(LinkKind::SiblingToSibling.rel_at_a(), Relationship::Sibling);
        assert_eq!(LinkKind::SiblingToSibling.rel_at_b(), Relationship::Sibling);
    }

    #[test]
    fn storage_order_is_total_and_stable() {
        let mut seen = [false; 4];
        for r in Relationship::ALL {
            let o = r.order() as usize;
            assert!(!seen[o], "duplicate order {o}");
            seen[o] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn displays() {
        assert_eq!(Relationship::Customer.to_string(), "customer");
        assert_eq!(LinkKind::PeerToPeer.to_string(), "p2p");
    }
}
