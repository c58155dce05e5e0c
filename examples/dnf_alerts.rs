//! DNF subscriptions through the textual language — the "bargain hunter
//! with alternatives" scenario.
//!
//! The paper's conclusion notes the filter already supports disjunctive
//! normal form conditions; here a subscriber watches two airports with
//! different price caps in a single user-level subscription, written in the
//! `pubsub-lang` text syntax, and is notified exactly once per matching
//! offer even when several disjuncts fire.
//!
//! Run with: `cargo run --example dnf_alerts`

use fastpubsub::broker::{DnfRegistry, DnfSubscription, SharedBroker, Validity};
use fastpubsub::core::EngineKind;
use fastpubsub::lang::{parse_event, parse_subscription};

fn main() {
    let broker = SharedBroker::new(EngineKind::Dynamic, 1);
    let mut registry = DnfRegistry::new();

    let expr = "(from = 'NYC' AND to = 'SFO' AND price < 400) OR \
                (from = 'EWR' AND to = 'SFO' AND price < 350)";
    let parsed = broker
        .with_vocab(|vocab| parse_subscription(expr, vocab))
        .unwrap_or_else(|e| panic!("{}", e.render(expr)));
    println!("subscription: {expr}");
    println!("  -> {} disjuncts", parsed.disjuncts.len());
    let dnf = DnfSubscription::new(parsed.disjuncts).unwrap();
    let id = registry.subscribe(&broker, dnf, Validity::forever());

    let offers = [
        ("{from: 'NYC', to: 'SFO', price: 380}", true),
        ("{from: 'NYC', to: 'SFO', price: 450}", false),
        ("{from: 'EWR', to: 'SFO', price: 340}", true),
        ("{from: 'EWR', to: 'SFO', price: 380}", false),
        ("{from: 'NYC', to: 'LAX', price: 200}", false),
    ];
    for (text, expect) in offers {
        let event = broker.with_vocab(|vocab| parse_event(text, vocab)).unwrap();
        let (dnf_hits, _) = registry.publish(&broker, &event);
        let notified = dnf_hits.contains(&id);
        println!(
            "offer {text} -> {}",
            if notified { "ALERT" } else { "ignored" }
        );
        assert_eq!(notified, expect, "offer {text}");
        assert!(dnf_hits.len() <= 1, "never more than one notification");
    }

    println!("dnf_alerts OK");
}
