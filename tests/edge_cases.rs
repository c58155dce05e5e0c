//! Edge-case and failure-injection tests across engines: inputs the paper's
//! uniform workloads never produce, which real deployments will.

use fastpubsub::prelude::*;
use fastpubsub::types::{AttrId, Value};

fn all_engines() -> impl Iterator<Item = Broker> {
    EngineKind::PAPER_ENGINES
        .into_iter()
        .map(|k| Broker::new(k).without_event_store())
}

/// Events carrying attributes no subscription ever mentioned.
#[test]
fn unknown_event_attributes_are_ignored() {
    for mut broker in all_engines() {
        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        let id = broker.subscribe(sub, Validity::forever());
        let event = Event::builder()
            .pair(AttrId(0), 1i64)
            .pair(AttrId(999), 42i64)
            .pair(AttrId(12345), 7i64)
            .build()
            .unwrap();
        assert_eq!(broker.publish(&event), vec![id], "{}", broker.engine_name());
    }
}

/// Mixed string/integer values on the same attribute.
#[test]
fn mixed_value_kinds_on_one_attribute() {
    for kind in EngineKind::PAPER_ENGINES {
        let mut broker = Broker::new(kind).without_event_store();
        let color = broker.attr("color");
        let red = broker.string("red");
        let int_sub = Subscription::builder().eq(color, 5i64).build().unwrap();
        let str_sub = Subscription::builder().eq(color, red).build().unwrap();
        let ne_sub = Subscription::builder()
            .with(color, Operator::Ne, 5i64)
            .build()
            .unwrap();
        let int_id = broker.subscribe(int_sub, Validity::forever());
        let str_id = broker.subscribe(str_sub, Validity::forever());
        let ne_id = broker.subscribe(ne_sub, Validity::forever());

        // Integer event: matches the int subscription, and ≠5 is false.
        let e = Event::builder().pair(color, 5i64).build().unwrap();
        let mut got = broker.publish(&e);
        got.sort();
        assert_eq!(got, vec![int_id], "{}", broker.engine_name());

        // String event: matches the string subscription, and 'red' ≠ 5 so
        // the ≠ subscription matches too (cross-kind inequality).
        let e = Event::builder().pair(color, red).build().unwrap();
        let mut got = broker.publish(&e);
        got.sort();
        assert_eq!(got, vec![str_id, ne_id], "{}", broker.engine_name());
    }
}

/// Extreme integer constants.
#[test]
fn extreme_values() {
    for mut broker in all_engines() {
        let sub = Subscription::builder()
            .with(AttrId(0), Operator::Ge, i64::MIN)
            .with(AttrId(0), Operator::Le, i64::MAX)
            .build()
            .unwrap();
        let id = broker.subscribe(sub, Validity::forever());
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let e = Event::builder().pair(AttrId(0), v).build().unwrap();
            assert_eq!(broker.publish(&e), vec![id], "value {v}");
        }
    }
}

/// Many subscriptions sharing one identical predicate set still notify
/// individually.
#[test]
fn identical_subscriptions_all_match() {
    for mut broker in all_engines() {
        let sub = Subscription::builder()
            .eq(AttrId(0), 1i64)
            .with(AttrId(1), Operator::Lt, 100i64)
            .build()
            .unwrap();
        let ids: Vec<_> = (0..200)
            .map(|_| broker.subscribe(sub.clone(), Validity::forever()))
            .collect();
        let e = Event::builder()
            .pair(AttrId(0), 1i64)
            .pair(AttrId(1), 50i64)
            .build()
            .unwrap();
        let mut got = broker.publish(&e);
        got.sort();
        assert_eq!(got, ids, "{}", broker.engine_name());
    }
}

/// Wide subscriptions exercise the generic (non-specialised) match loop.
#[test]
fn wide_subscriptions_use_generic_kernel() {
    for mut broker in all_engines() {
        // 16 predicates: one equality + 15 range predicates.
        let mut b = Subscription::builder().eq(AttrId(0), 1i64);
        for a in 1..16u32 {
            b = b.with(AttrId(a), Operator::Ge, -(a as i64));
        }
        let sub = b.build().unwrap();
        assert_eq!(sub.size(), 16);
        let id = broker.subscribe(sub, Validity::forever());

        let mut eb = Event::builder().pair(AttrId(0), 1i64);
        for a in 1..16u32 {
            eb = eb.pair(AttrId(a), 0i64);
        }
        let hit = eb.build().unwrap();
        assert_eq!(broker.publish(&hit), vec![id], "{}", broker.engine_name());

        // Break the 15th predicate only: no match.
        let mut eb = Event::builder().pair(AttrId(0), 1i64);
        for a in 1..16u32 {
            let v = if a == 15 { -100i64 } else { 0 };
            eb = eb.pair(AttrId(a), v);
        }
        let miss = eb.build().unwrap();
        assert!(broker.publish(&miss).is_empty(), "{}", broker.engine_name());
    }
}

/// Drain the system completely, then rebuild it; ids and indexes must not
/// leak state.
#[test]
fn drain_and_rebuild() {
    for kind in EngineKind::PAPER_ENGINES {
        let mut broker = Broker::new(kind).without_event_store();
        let sub = |v: i64| {
            Subscription::builder()
                .eq(AttrId(0), v)
                .with(AttrId(1), Operator::Gt, v)
                .build()
                .unwrap()
        };
        let first: Vec<_> = (0..100)
            .map(|v| broker.subscribe(sub(v), Validity::forever()))
            .collect();
        for id in first {
            assert!(broker.unsubscribe(id));
        }
        assert_eq!(broker.subscription_count(), 0);
        // Nothing matches while empty.
        let e = Event::builder()
            .pair(AttrId(0), 5i64)
            .pair(AttrId(1), 50i64)
            .build()
            .unwrap();
        assert!(broker.publish(&e).is_empty());

        // Rebuild with the same shapes; matching works again.
        let second: Vec<_> = (0..100)
            .map(|v| broker.subscribe(sub(v), Validity::forever()))
            .collect();
        assert_eq!(
            broker.publish(&e),
            vec![second[5]],
            "{}",
            broker.engine_name()
        );
    }
}

/// Empty events match nothing but crash nothing.
#[test]
fn empty_event() {
    for mut broker in all_engines() {
        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        broker.subscribe(sub, Validity::forever());
        let e = Event::from_pairs(vec![]).unwrap();
        assert!(broker.publish(&e).is_empty());
    }
}

/// Negative-domain range predicates work through the ordered snapshot index.
#[test]
fn negative_ranges() {
    for mut broker in all_engines() {
        let sub = Subscription::builder()
            .with(AttrId(0), Operator::Lt, -10i64)
            .with(AttrId(0), Operator::Ge, -20i64)
            .build()
            .unwrap();
        let id = broker.subscribe(sub, Validity::forever());
        let cases = [
            (-20i64, true),
            (-15, true),
            (-11, true),
            (-10, false),
            (-21, false),
            (0, false),
        ];
        for (v, should) in cases {
            let e = Event::builder().pair(AttrId(0), v).build().unwrap();
            let got = !broker.publish(&e).is_empty();
            assert_eq!(got, should, "{} value {v}", broker.engine_name());
        }
        let _ = id;
    }
}

/// String values flow end to end, including interning-order `<` semantics.
#[test]
fn string_values_end_to_end() {
    let mut broker = Broker::new(EngineKind::Dynamic);
    let city = broker.attr("city");
    // Intern in sorted order so symbol order is lexicographic.
    let amsterdam = broker.string("amsterdam");
    let berlin = broker.string("berlin");
    let cairo = broker.string("cairo");

    let before_cairo = Subscription::builder()
        .with(city, Operator::Lt, cairo)
        .build()
        .unwrap();
    let id = broker.subscribe(before_cairo, Validity::forever());

    for (v, should) in [(amsterdam, true), (berlin, true), (cairo, false)] {
        let e = Event::builder().pair(city, v).build().unwrap();
        assert_eq!(!broker.publish(&e).is_empty(), should);
    }
    let _ = Value::Str; // keep the import obviously used
    let _ = id;
}

/// Subscriptions made only of `≠` predicates carry no equality access
/// predicate, so propagation and clustered engines must route them through
/// their scan-every-event fallback path — with semantics identical to the
/// oracle's across all engines.
#[test]
fn ne_only_subscriptions_use_fallback_path() {
    for mut broker in all_engines() {
        let ne_only = Subscription::builder()
            .with(AttrId(0), Operator::Ne, 5i64)
            .with(AttrId(1), Operator::Ne, 0i64)
            .build()
            .unwrap();
        let id = broker.subscribe(ne_only, Validity::forever());
        let cases = [
            // (attr0, attr1, matches): both ≠ must hold.
            (4i64, 1i64, true),
            (5, 1, false),
            (4, 0, false),
            (5, 0, false),
            (-5, 99, true),
        ];
        for (a, b, should) in cases {
            let e = Event::builder()
                .pair(AttrId(0), a)
                .pair(AttrId(1), b)
                .build()
                .unwrap();
            let got = broker.publish(&e) == vec![id];
            assert_eq!(got, should, "{} event ({a},{b})", broker.engine_name());
        }
        // An event missing attr 1 entirely cannot satisfy its ≠ predicate.
        let e = Event::builder().pair(AttrId(0), 4i64).build().unwrap();
        assert!(broker.publish(&e).is_empty(), "{}", broker.engine_name());
    }
}

/// Duplicate attributes within one event violate the §1.1 "at most one pair
/// per attribute" model and are rejected at construction — identically via
/// `from_pairs` and the builder, never panicking, and never reaching an
/// engine.
#[test]
fn duplicate_event_attributes_are_rejected() {
    use fastpubsub::types::TypeError;

    let dup = vec![
        (AttrId(3), Value::Int(1)),
        (AttrId(3), Value::Int(2)),
        (AttrId(4), Value::Int(9)),
    ];
    let err = Event::from_pairs(dup.clone()).unwrap_err();
    assert!(matches!(err, TypeError::DuplicateEventAttribute(AttrId(3))));

    let mut b = Event::builder();
    for (a, v) in dup {
        b = b.pair(a, v);
    }
    let err = b.build().unwrap_err();
    assert!(matches!(err, TypeError::DuplicateEventAttribute(AttrId(3))));

    // Same value counts as a duplicate too (a set of pairs, not a multiset).
    let err = Event::from_pairs(vec![(AttrId(0), Value::Int(7)), (AttrId(0), Value::Int(7))])
        .unwrap_err();
    assert!(matches!(err, TypeError::DuplicateEventAttribute(AttrId(0))));

    // Engines never see the malformed event; brokers stay fully functional.
    for mut broker in all_engines() {
        let sub = Subscription::builder().eq(AttrId(3), 1i64).build().unwrap();
        let id = broker.subscribe(sub, Validity::forever());
        let ok = Event::builder().pair(AttrId(3), 1i64).build().unwrap();
        assert_eq!(broker.publish(&ok), vec![id], "{}", broker.engine_name());
    }
}

/// An unsubscribe racing a validity expiry on the same tick: whichever side
/// wins, the subscription is gone exactly once, the loser reports `false`/
/// zero, and the broker never double-removes or panics on the expiry heap's
/// stale entry.
#[test]
fn unsubscribe_racing_expiry_on_the_same_tick() {
    use fastpubsub::broker::LogicalTime;

    for kind in EngineKind::PAPER_ENGINES {
        // Expiry first: the tick at t=1 reaps the subscription, so the
        // unsubscribe that "raced in late" finds nothing.
        let mut broker = Broker::new(kind).without_event_store();
        let name = broker.engine_name();
        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        let id = broker.subscribe(sub.clone(), Validity::until(LogicalTime(1)));
        let (expired, _) = broker.tick();
        assert_eq!(expired, 1, "{name}");
        assert!(!broker.unsubscribe(id), "{name}: expired id must be gone");
        assert_eq!(broker.subscription_count(), 0, "{name}");

        // Unsubscribe first: the tick then finds the heap's entry already
        // dead and must report zero expiries, not one.
        let id = broker.subscribe(sub, Validity::until(LogicalTime(2)));
        assert!(broker.unsubscribe(id), "{name}");
        let (expired, _) = broker.tick();
        assert_eq!(expired, 0, "{name}: removed id must not count as expired");
        assert_eq!(broker.subscription_count(), 0, "{name}");
        let e = Event::builder().pair(AttrId(0), 1i64).build().unwrap();
        assert!(broker.publish(&e).is_empty(), "{name}");
    }
}

/// A re-subscribe after an expiry gets a fresh id — the old id must stay
/// dead (no resurrection through slot reuse), and notifications for the new
/// subscription carry only the new id.
#[test]
fn resubscribe_after_expiry_does_not_resurrect_the_old_id() {
    use fastpubsub::broker::LogicalTime;

    for kind in EngineKind::PAPER_ENGINES {
        let mut broker = Broker::new(kind).without_event_store();
        let name = broker.engine_name();
        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        let old = broker.subscribe(sub.clone(), Validity::until(LogicalTime(1)));
        let (expired, _) = broker.tick();
        assert_eq!(expired, 1, "{name}");

        let new = broker.subscribe(sub, Validity::forever());
        assert_ne!(new, old, "{name}: ids are never reissued");
        let e = Event::builder().pair(AttrId(0), 1i64).build().unwrap();
        assert_eq!(broker.publish(&e), vec![new], "{name}");
        assert!(!broker.unsubscribe(old), "{name}: old id stays dead");
        assert!(broker.unsubscribe(new), "{name}");
    }
}

/// Duplicate predicates within one subscription: an exact `(attr, op,
/// value)` repeat is rejected at construction (it adds no information and
/// would distort size-based clustering), while distinct predicates on the
/// same attribute — even redundant ones — are legal and match correctly.
#[test]
fn duplicate_predicates_in_one_subscription() {
    use fastpubsub::types::TypeError;

    let err = Subscription::builder()
        .eq(AttrId(0), 1i64)
        .eq(AttrId(0), 1i64)
        .build()
        .unwrap_err();
    assert!(matches!(err, TypeError::DuplicatePredicate));
    let err = Subscription::builder()
        .with(AttrId(2), Operator::Ge, 5i64)
        .with(AttrId(2), Operator::Ge, 5i64)
        .build()
        .unwrap_err();
    assert!(matches!(err, TypeError::DuplicatePredicate));

    // Same attribute, overlapping-but-distinct predicates: legal, and every
    // engine applies them all conjunctively.
    for mut broker in all_engines() {
        let name = broker.engine_name();
        let sub = Subscription::builder()
            .with(AttrId(2), Operator::Ge, 5i64)
            .with(AttrId(2), Operator::Gt, 4i64)
            .with(AttrId(2), Operator::Le, 9i64)
            .build()
            .unwrap();
        let id = broker.subscribe(sub, Validity::forever());
        for (v, should) in [(4i64, false), (5, true), (9, true), (10, false)] {
            let e = Event::builder().pair(AttrId(2), v).build().unwrap();
            assert_eq!(broker.publish(&e) == vec![id], should, "{name} value {v}");
        }
    }
}

/// Unsubscribing an id that was never issued (or already removed) returns
/// `false` without panicking, on every engine, and leaves the broker fully
/// functional — unlike `MatchEngine::remove`, which is allowed to assert.
#[test]
fn unsubscribe_of_unknown_id_is_rejected_not_fatal() {
    for mut broker in all_engines() {
        let name = broker.engine_name();
        // Never-issued ids: far past the lane and id 0 before any subscribe.
        assert!(!broker.unsubscribe(SubscriptionId(0)), "{name}");
        assert!(!broker.unsubscribe(SubscriptionId(999_999)), "{name}");

        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        let id = broker.subscribe(sub, Validity::forever());
        assert!(broker.unsubscribe(id), "{name}");
        // Double-unsubscribe of a once-valid id.
        assert!(!broker.unsubscribe(id), "{name}");

        // Still functional afterwards.
        let sub = Subscription::builder().eq(AttrId(0), 2i64).build().unwrap();
        let id2 = broker.subscribe(sub, Validity::forever());
        let e = Event::builder().pair(AttrId(0), 2i64).build().unwrap();
        assert_eq!(broker.publish(&e), vec![id2], "{name}");
    }
}
