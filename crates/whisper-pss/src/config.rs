//! Nylon / biased-PSS configuration.

use whisper_crypto::rsa::RsaKeySize;

/// Parameters of the Nylon PSS and its WHISPER extensions.
///
/// The defaults match the paper's evaluation settings: view size `c = 10`,
/// Π = 3 and sim-grade RSA keys. What no experiment varies is a constant
/// beside the code that reads it: the 10-second cycle
/// ([`crate::nylon::CYCLE`]), the stale-entry age
/// ([`crate::nylon::MAX_AGE`]) and the lifetime of a reply route or an
/// open request's wait ([`crate::transport::REPLY_ROUTE_TTL`]).
#[derive(Clone, Debug)]
pub struct NylonConfig {
    /// View size `c`.
    pub view_size: usize,
    /// Entries shipped per gossip exchange (including the sender's own
    /// fresh entry). The classic choice is `c / 2`.
    pub gossip_len: usize,
    /// Minimum number of P-nodes to keep in the view (Π). 0 disables the
    /// bias entirely (the unmodified PSS used as Fig. 5's baseline).
    pub pi: usize,
    /// Whether to discard the *oldest* P-nodes above the Π threshold
    /// first, limiting P-node in-degree inflation (paper §III-B-1; an
    /// ablation flag here).
    pub oldest_p_discard: bool,
    /// Whether gossip messages piggyback the sender's public key (the
    /// public key sampling service; Fig. 6 measures its cost).
    pub key_sampling: bool,
    /// Maximum length of the rendezvous chain stored per view entry, at
    /// most [`ROUTE_CAP`](crate::view::ROUTE_CAP).
    pub max_route: usize,
    /// Connection backlog capacity as a multiple of `view_size` (paper:
    /// 2 × c).
    pub cb_factor: usize,
    /// RSA modulus size used for this node's key pair.
    pub rsa: RsaKeySize,
}

impl Default for NylonConfig {
    fn default() -> Self {
        NylonConfig {
            view_size: 10,
            gossip_len: 5,
            pi: 3,
            oldest_p_discard: true,
            key_sampling: true,
            max_route: 3,
            cb_factor: 2,
            rsa: RsaKeySize::Sim384,
        }
    }
}

impl NylonConfig {
    /// The paper's configuration with a specific Π.
    pub fn with_pi(pi: usize) -> Self {
        NylonConfig { pi, ..NylonConfig::default() }
    }

    /// Capacity of the connection backlog (2 × c with defaults).
    pub fn cb_capacity(&self) -> usize {
        self.cb_factor * self.view_size
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical combinations (e.g. Π larger than the view).
    pub fn validate(&self) {
        assert!(self.view_size >= 2, "view size must be at least 2");
        assert!(
            self.gossip_len >= 1 && self.gossip_len <= self.view_size,
            "gossip length must be within [1, view_size]"
        );
        assert!(self.pi <= self.view_size, "Π cannot exceed the view size");
        assert!(self.cb_factor >= 1, "CB must hold at least one view worth");
        assert!(
            self.max_route <= crate::view::ROUTE_CAP,
            "view entries store at most ROUTE_CAP hops of a rendezvous chain"
        );
        assert!(
            (crate::nylon::MAX_AGE as usize) > 2 * self.view_size / self.gossip_len,
            "MAX_AGE must exceed the refresh interval a live entry can see"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = NylonConfig::default();
        c.validate();
        assert_eq!(c.view_size, 10);
        assert_eq!(crate::nylon::CYCLE.as_secs(), 10);
        assert_eq!(c.cb_capacity(), 20);
    }

    #[test]
    fn with_pi() {
        let c = NylonConfig::with_pi(0);
        c.validate();
        assert_eq!(c.pi, 0);
    }

    #[test]
    #[should_panic(expected = "Π cannot exceed")]
    fn oversized_pi_rejected() {
        NylonConfig { pi: 11, ..NylonConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "gossip length")]
    fn oversized_gossip_len_rejected() {
        NylonConfig { gossip_len: 11, ..NylonConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "MAX_AGE")]
    fn hair_trigger_max_age_rejected() {
        NylonConfig { view_size: 50, ..NylonConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "ROUTE_CAP")]
    fn oversized_max_route_rejected() {
        NylonConfig { max_route: crate::view::ROUTE_CAP + 1, ..NylonConfig::default() }.validate();
    }
}
