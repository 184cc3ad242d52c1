//! Application timers: [`WhisperApi::set_app_timer`] hands
//! [`GroupApp::on_timer`] back exactly the token it was armed with, up to
//! the largest the timer token has room for (2⁵⁶ − 1), and refuses a
//! larger one rather than fire it as a different token.

use whisper_core::{GroupApp, WhisperApi, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Sim, SimConfig};
use whisper_net::SimDuration;
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

/// Records the token of every application timer that fires.
#[derive(Default)]
struct Fired(Vec<u64>);

impl GroupApp for Fired {
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _api: &mut WhisperApi<'_>, token: u64) {
        self.0.push(token);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Arms one application timer with `token` on a lone node and returns the
/// tokens `on_timer` saw.
fn fire(token: u64) -> Vec<u64> {
    let cfg = WhisperConfig::default();
    let keypair = KeyPair::generate(cfg.nylon.rsa, &mut StdRng::seed_from_u64(1));
    let node = WhisperNode::with_app(cfg, keypair, Box::new(Fired::default()));
    let mut sim = Sim::new(SimConfig::cluster(1));
    let id = sim.add_node(Box::new(node), NatType::Public);
    sim.with_node_ctx::<WhisperNode>(id, |node, ctx| {
        node.with_api(|api, _| api.set_app_timer(ctx, SimDuration::from_secs(1), token));
    });
    sim.run_for_secs(2);
    sim.node::<WhisperNode>(id).unwrap().app::<Fired>().unwrap().0.clone()
}

#[test]
fn the_largest_app_token_comes_back_intact() {
    assert_eq!(fire((1 << 56) - 1), [(1 << 56) - 1]);
}

#[test]
#[should_panic(expected = "not below 2^56")]
fn an_app_token_past_2_pow_56_is_refused() {
    fire(1 << 60);
}
