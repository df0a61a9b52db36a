//! Model-based property test of [`ComponentIndex`]: random intern / union /
//! release / re-intern sequences against a naive `key → set id` partition.

use blockconc_graph::{ComponentIndex, ComponentPayload};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A payload that makes every fold visible: the keys it has been told about (one
/// entry per `deposit`, so duplicates count) — the index must keep exactly the
/// deposits made into a component's keys, however components merge and nodes are reused.
#[derive(Debug, Clone, PartialEq)]
struct Deposits(Vec<u8>);

impl ComponentPayload<u8> for Deposits {
    fn singleton(_key: u8) -> Self {
        Deposits(Vec::new())
    }

    fn absorb(&mut self, mut absorbed: Self) -> usize {
        let moved = absorbed.0.len();
        self.0.append(&mut absorbed.0);
        moved
    }
}

/// The naive model: a set id per live key and the deposits made per set id.
#[derive(Default)]
struct Model {
    set_of: BTreeMap<u8, u32>,
    deposits: BTreeMap<u32, Vec<u8>>,
    next_set: u32,
}

impl Model {
    fn intern(&mut self, key: u8) -> u32 {
        if let Some(&set) = self.set_of.get(&key) {
            return set;
        }
        self.next_set += 1;
        self.set_of.insert(key, self.next_set);
        self.deposits.insert(self.next_set, Vec::new());
        self.next_set
    }

    fn keys_of(&self, set: u32) -> Vec<u8> {
        let in_set = |(&key, &s): (&u8, &u32)| (s == set).then_some(key);
        self.set_of.iter().filter_map(in_set).collect()
    }

    /// Merges the sets of `a` and `b` the way a size-weighted union does (the
    /// smaller side is absorbed; `b`'s on a tie); returns the absorbed side's
    /// element count — its keys plus its deposits — or 0 if already merged.
    fn union(&mut self, a: u8, b: u8) -> usize {
        let (set_a, set_b) = (self.intern(a), self.intern(b));
        if set_a == set_b {
            return 0;
        }
        let (keys_a, keys_b) = (self.keys_of(set_a), self.keys_of(set_b));
        let (kept, gone, gone_keys) = if keys_a.len() >= keys_b.len() {
            (set_a, set_b, keys_b)
        } else {
            (set_b, set_a, keys_a)
        };
        let mut moved = self.deposits.remove(&gone).expect("live set");
        let work = gone_keys.len() + moved.len();
        self.deposits
            .get_mut(&kept)
            .expect("live set")
            .append(&mut moved);
        for key in gone_keys {
            self.set_of.insert(key, kept);
        }
        work
    }

    fn release(&mut self, key: u8) -> Option<(Vec<u8>, Vec<u8>)> {
        let set = *self.set_of.get(&key)?;
        let keys = self.keys_of(set);
        for key in &keys {
            self.set_of.remove(key);
        }
        Some((self.deposits.remove(&set).expect("live set"), keys))
    }
}

fn sorted(mut values: Vec<u8>) -> Vec<u8> {
    values.sort_unstable();
    values
}

/// The index describes the model's partition, payload for payload.
fn assert_same_partition(index: &mut ComponentIndex<u8, Deposits>, model: &Model, step: &str) {
    assert_eq!(index.key_count(), model.set_of.len(), "{step}");
    assert_eq!(index.components().count(), model.deposits.len(), "{step}");
    // Every component the index lists is one the model has, under a live key.
    let listed: Vec<u8> = index.components().map(|(key, _)| key).collect();
    let mut listed_sets: Vec<u32> = listed
        .iter()
        .map(|key| {
            *model
                .set_of
                .get(key)
                .unwrap_or_else(|| panic!("{step}: stale key {key}"))
        })
        .collect();
    listed_sets.sort_unstable();
    listed_sets.dedup();
    assert_eq!(
        listed_sets.len(),
        model.deposits.len(),
        "{step}: a root is listed twice"
    );
    // Same partition, and each key reaches its own set's payload.
    let mut id_of_set: BTreeMap<u32, usize> = BTreeMap::new();
    for (&key, &set) in &model.set_of {
        let id = index.component_id(&key).expect("live key is interned");
        assert_eq!(
            *id_of_set.entry(set).or_insert(id),
            id,
            "{step}: key {key} split off"
        );
        let payload = index.get_mut(&key).expect("live key has a payload").clone();
        assert_eq!(
            sorted(payload.0),
            sorted(model.deposits[&set].clone()),
            "{step}: key {key}"
        );
    }
    let mut ids: Vec<usize> = id_of_set.into_values().collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        model.deposits.len(),
        "{step}: two sets share a component"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_agrees_with_a_naive_partition(
        ops in proptest::collection::vec((0u8..10, 0u8..48, 0u8..48), 200..600),
    ) {
        let mut index: ComponentIndex<u8, Deposits> = ComponentIndex::new();
        let mut model = Model::default();
        let (mut deposited, mut released, mut reuses) = (0usize, 0usize, 0usize);
        // Keys released so far, and the most keys ever interned at once: the
        // index only grows its tables past that peak, so a new key interned
        // below it takes a released node.
        let (mut gone, mut peak) = (Vec::new(), 0usize);
        for (at, &(op, a, b)) in ops.iter().enumerate() {
            let step = format!("op {at} ({op}, {a}, {b})");
            match op {
                0..=1 => {
                    index.intern(a).0.push(a);
                    let set = model.intern(a);
                    model.deposits.get_mut(&set).expect("live set").push(a);
                    deposited += 1;
                }
                2..=5 => {
                    let (payload, folded) = index.union(a, b);
                    payload.0.push(a);
                    prop_assert_eq!(folded, model.union(a, b), "{}: fold work", step);
                    let set = model.set_of[&a];
                    model.deposits.get_mut(&set).expect("live set").push(a);
                    deposited += 1;
                }
                6..=8 => {
                    let expected = model.release(a);
                    let got = index.release(&a);
                    prop_assert_eq!(got.is_some(), expected.is_some(), "{}", step);
                    if let (Some((payload, keys)), Some((deposits, model_keys))) = (got, expected) {
                        gone.extend_from_slice(&keys);
                        prop_assert_eq!(sorted(keys), model_keys, "{}", step);
                        released += payload.0.len();
                        prop_assert_eq!(sorted(payload.0), sorted(deposits), "{}", step);
                    }
                }
                _ => {
                    // Re-intern a released key: it must come back as a fresh
                    // singleton, whichever node it lands on; the partition check
                    // below is what a stale ring or root would fail.
                    if let Some(&key) = gone.get(a as usize % gone.len().max(1)) {
                        let fresh = !model.set_of.contains_key(&key);
                        reuses += (fresh && index.key_count() < peak) as usize;
                        let payload = index.intern(key);
                        if fresh {
                            prop_assert!(payload.0.is_empty(), "{}: stale payload", step);
                        }
                        model.intern(key);
                    }
                }
            }
            peak = peak.max(index.key_count());
            assert_same_partition(&mut index, &model, &step);
            let held: usize = index.components().map(|(_, payload)| payload.0.len()).sum();
            prop_assert_eq!(held + released, deposited, "{}: payload conservation", step);
        }
        prop_assert!(reuses > 0, "the op mix must reach a reuse");
    }
}
