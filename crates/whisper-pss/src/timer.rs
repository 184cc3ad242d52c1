//! Timer tokens: the one table of timer kinds for every layer of a node.
//!
//! A simulator timer carries one `u64`. Its low byte names the *kind* —
//! which layer armed it and why — and the 56 bits above carry a payload
//! the kind gives meaning to (a gossip generation, a peer, a message id,
//! an application's token). A node's layers share one timer stream, so
//! two layers naming the same kind would misroute each other's timers:
//! every kind is named here and nowhere else.

/// Nylon: the periodic gossip cycle.
pub const GOSSIP_CYCLE: u8 = 1;
/// Nylon: a gossip response timeout (payload: the exchange generation).
pub const GOSSIP_TIMEOUT: u8 = 2;
/// WCL: a tracked send's retry (payload: the message id).
pub const WCL_RETRY: u8 = 4;
/// PPSS: the group gossip cycle.
pub const PPSS_CYCLE: u8 = 5;
/// PPSS: the persistent-connection-pool refresh.
pub const PCP_REFRESH: u8 = 6;
/// An application timer (payload: the application's token).
pub const APP: u8 = 7;

/// Payloads must stay below this: 2⁵⁶, the bits above the kind byte.
pub const PAYLOAD_BOUND: u64 = 1 << 56;

/// The token of a timer of `kind` carrying `payload`.
///
/// # Panics
///
/// Panics if `payload` is not below [`PAYLOAD_BOUND`] (2⁵⁶): its top
/// bits would be lost and the timer would fire with another payload.
pub fn token(kind: u8, payload: u64) -> u64 {
    assert!(payload < PAYLOAD_BOUND, "timer payload {payload} is not below 2^56");
    u64::from(kind) | payload << 8
}

/// The kind a token names.
pub fn kind(token: u64) -> u8 {
    token as u8
}

/// The payload a token carries.
pub fn payload(token: u64) -> u64 {
    token >> 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let mut kinds = [GOSSIP_CYCLE, GOSSIP_TIMEOUT, WCL_RETRY, PPSS_CYCLE, PCP_REFRESH, APP];
        kinds.sort_unstable();
        assert!(kinds.windows(2).all(|w| w[0] != w[1]), "{kinds:?}");
    }

    #[test]
    fn tokens_round_trip_up_to_the_bound() {
        for p in [0, 42, PAYLOAD_BOUND - 1] {
            let t = token(WCL_RETRY, p);
            assert_eq!((kind(t), payload(t)), (WCL_RETRY, p));
        }
        assert_eq!(token(APP, 3), 7 | 3 << 8, "the token values traces record");
    }
}
