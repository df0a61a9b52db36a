//! Per-[`StateKey`] write fragments: the decomposition of an account-level write
//! set into individually versionable cells.
//!
//! The optimistic engine in `blockconc-execution` tracks conflicts per
//! [`StateKey`], not per account. A transaction's post-state is therefore
//! expressed as *fragments* — one per key whose value actually changed relative
//! to the pre-state the transaction was served — instead of whole
//! [`StoredAccount`] records. An unchanged slot produces no fragment and hence
//! no conflict edge, which is exactly what dissolves false whole-account
//! conflicts between transactions touching disjoint slots of one contract.

use crate::backend::StoredAccount;
use crate::key::StateKey;
use blockconc_types::Address;
use serde::{Deserialize, Serialize};

/// The concrete value carried by one write fragment.
///
/// A fragment must be able to *reconstruct* its part of the account, so code
/// is carried by value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FragmentValue {
    /// New balance and nonce (the pair lives under one [`StateKey::Balance`]).
    Meta {
        /// Balance in base units.
        balance_sats: u64,
        /// Transaction nonce.
        nonce: u64,
    },
    /// New (non-zero) value of one storage slot.
    Slot(u64),
    /// New serialized contract code.
    Code(String),
}

/// One per-key write: the key and its new value, `None` deleting the key.
///
/// Deleting a [`StateKey::Balance`] key deletes the whole account; deleting a
/// [`StateKey::Storage`] key zeroes the slot; deleting a [`StateKey::Code`] key
/// removes the deployed code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateFragment {
    /// The written key.
    pub key: StateKey,
    /// The key's post-transaction value; `None` deletes it.
    pub value: Option<FragmentValue>,
}

/// Diffs one account's pre- and post-transaction values into per-key fragments,
/// appended to `out` in canonical part order (meta, slots ascending, code).
///
/// `pre` must be the value the transaction was actually *served* (for
/// speculative execution: the multi-version view's answer, not committed
/// state), so that a key the transaction never changed diffs to no fragment
/// regardless of which concurrent writer produced the served value.
pub fn diff_account_fragments(
    address: Address,
    pre: Option<&StoredAccount>,
    post: Option<&StoredAccount>,
    out: &mut Vec<StateFragment>,
) {
    match (pre, post) {
        (None, None) => {}
        (Some(_), None) => {
            // Account deleted within the block (created then rolled back, or
            // explicitly removed): a single meta deletion kills the account;
            // emit slot/code deletions too so the fragments are closed under
            // per-key replay.
            out.push(StateFragment {
                key: StateKey::Balance(address),
                value: None,
            });
            let pre = pre.expect("checked Some");
            for (slot, _) in &pre.storage {
                out.push(StateFragment {
                    key: StateKey::Storage(address, *slot),
                    value: None,
                });
            }
            if pre.code_json.is_some() {
                out.push(StateFragment {
                    key: StateKey::Code(address),
                    value: None,
                });
            }
        }
        (None, Some(post)) => {
            out.push(StateFragment {
                key: StateKey::Balance(address),
                value: Some(FragmentValue::Meta {
                    balance_sats: post.balance_sats,
                    nonce: post.nonce,
                }),
            });
            for (slot, value) in &post.storage {
                out.push(StateFragment {
                    key: StateKey::Storage(address, *slot),
                    value: Some(FragmentValue::Slot(*value)),
                });
            }
            if let Some(code) = &post.code_json {
                out.push(StateFragment {
                    key: StateKey::Code(address),
                    value: Some(FragmentValue::Code(code.clone())),
                });
            }
        }
        (Some(pre), Some(post)) => {
            if pre.balance_sats != post.balance_sats || pre.nonce != post.nonce {
                out.push(StateFragment {
                    key: StateKey::Balance(address),
                    value: Some(FragmentValue::Meta {
                        balance_sats: post.balance_sats,
                        nonce: post.nonce,
                    }),
                });
            }
            diff_storage(address, &pre.storage, &post.storage, out);
            if pre.code_json != post.code_json {
                out.push(StateFragment {
                    key: StateKey::Code(address),
                    value: post
                        .code_json
                        .as_ref()
                        .map(|c| FragmentValue::Code(c.clone())),
                });
            }
        }
    }
}

/// Two-pointer sweep over both (sorted, non-zero) slot lists: emits a fragment
/// for every slot whose value differs, `None` when the slot drops to zero.
fn diff_storage(
    address: Address,
    pre: &[(u64, u64)],
    post: &[(u64, u64)],
    out: &mut Vec<StateFragment>,
) {
    let (mut i, mut j) = (0, 0);
    while i < pre.len() || j < post.len() {
        match (pre.get(i), post.get(j)) {
            (Some(&(old_slot, old_value)), Some(&(new_slot, new_value))) => {
                if old_slot < new_slot {
                    // Slot vanished from the post state.
                    out.push(StateFragment {
                        key: StateKey::Storage(address, old_slot),
                        value: None,
                    });
                    i += 1;
                } else if new_slot < old_slot {
                    out.push(StateFragment {
                        key: StateKey::Storage(address, new_slot),
                        value: Some(FragmentValue::Slot(new_value)),
                    });
                    j += 1;
                } else {
                    if old_value != new_value {
                        out.push(StateFragment {
                            key: StateKey::Storage(address, old_slot),
                            value: Some(FragmentValue::Slot(new_value)),
                        });
                    }
                    i += 1;
                    j += 1;
                }
            }
            (Some(&(slot, _)), None) => {
                out.push(StateFragment {
                    key: StateKey::Storage(address, slot),
                    value: None,
                });
                i += 1;
            }
            (None, Some(&(slot, value))) => {
                out.push(StateFragment {
                    key: StateKey::Storage(address, slot),
                    value: Some(FragmentValue::Slot(value)),
                });
                j += 1;
            }
            (None, None) => unreachable!("loop condition keeps one side non-empty"),
        }
    }
}

/// Applies one fragment value to an account-part in place, the inverse of
/// [`diff_account_fragments`]: overlaying every fragment of a diff onto `pre`
/// reproduces `post`.
///
/// A meta deletion clears the whole account. Slot and code fragments on a
/// non-existent account are ignored deterministically — they can only arise
/// from stale cells of an account a later fragment deletes.
pub fn apply_fragment(
    value: &mut Option<StoredAccount>,
    key: &StateKey,
    fragment: Option<&FragmentValue>,
) {
    match (key, fragment) {
        (
            StateKey::Balance(_),
            Some(FragmentValue::Meta {
                balance_sats,
                nonce,
            }),
        ) => {
            let account = value.get_or_insert_with(|| StoredAccount {
                balance_sats: 0,
                nonce: 0,
                storage: Vec::new(),
                code_json: None,
            });
            account.balance_sats = *balance_sats;
            account.nonce = *nonce;
        }
        (StateKey::Balance(_), None) => *value = None,
        (StateKey::Storage(_, slot), Some(FragmentValue::Slot(new))) => {
            if let Some(account) = value.as_mut() {
                match account.storage.binary_search_by_key(slot, |(k, _)| *k) {
                    Ok(pos) => account.storage[pos].1 = *new,
                    Err(pos) => account.storage.insert(pos, (*slot, *new)),
                }
            }
        }
        (StateKey::Storage(_, slot), None) => {
            if let Some(account) = value.as_mut() {
                if let Ok(pos) = account.storage.binary_search_by_key(slot, |(k, _)| *k) {
                    account.storage.remove(pos);
                }
            }
        }
        (StateKey::Code(_), Some(FragmentValue::Code(code))) => {
            if let Some(account) = value.as_mut() {
                account.code_json = Some(code.clone());
            }
        }
        (StateKey::Code(_), None) => {
            if let Some(account) = value.as_mut() {
                account.code_json = None;
            }
        }
        (key, Some(fragment)) => {
            debug_assert!(
                false,
                "fragment value {fragment:?} does not fit key {key:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account(
        balance: u64,
        nonce: u64,
        storage: &[(u64, u64)],
        code: Option<&str>,
    ) -> StoredAccount {
        StoredAccount {
            balance_sats: balance,
            nonce,
            storage: storage.to_vec(),
            code_json: code.map(str::to_string),
        }
    }

    fn replay(pre: Option<&StoredAccount>, fragments: &[StateFragment]) -> Option<StoredAccount> {
        let mut value = pre.cloned();
        for fragment in fragments {
            apply_fragment(&mut value, &fragment.key, fragment.value.as_ref());
        }
        value
    }

    #[test]
    fn unchanged_parts_produce_no_fragments() {
        let addr = Address::from_low(7);
        let pre = account(100, 2, &[(3, 30), (9, 90)], Some("code"));
        let mut post = pre.clone();
        post.storage[1].1 = 91; // only slot 9 changes
        let mut out = Vec::new();
        diff_account_fragments(addr, Some(&pre), Some(&post), &mut out);
        assert_eq!(
            out,
            vec![StateFragment {
                key: StateKey::Storage(addr, 9),
                value: Some(FragmentValue::Slot(91)),
            }]
        );
    }

    #[test]
    fn diffs_replay_back_to_the_post_state() {
        let addr = Address::from_low(1);
        let cases = [
            (None, None),
            (None, Some(account(5, 1, &[(2, 20)], Some("c")))),
            (Some(account(5, 1, &[(2, 20)], Some("c"))), None),
            (
                Some(account(5, 1, &[(1, 10), (2, 20), (4, 40)], Some("old"))),
                Some(account(6, 2, &[(2, 21), (3, 33), (4, 40)], Some("new"))),
            ),
            (
                Some(account(5, 1, &[(2, 20)], None)),
                Some(account(5, 1, &[], None)), // slot dropped to zero
            ),
        ];
        for (pre, post) in cases {
            let mut out = Vec::new();
            diff_account_fragments(addr, pre.as_ref(), post.as_ref(), &mut out);
            assert!(
                out.windows(2).all(|w| w[0].key < w[1].key),
                "fragments must come out key-sorted: {out:?}"
            );
            assert_eq!(
                replay(pre.as_ref(), &out),
                post,
                "replay must reproduce post"
            );
        }
    }

    #[test]
    fn slot_and_code_fragments_on_dead_accounts_are_ignored() {
        let mut value = None;
        apply_fragment(
            &mut value,
            &StateKey::Storage(Address::from_low(1), 3),
            Some(&FragmentValue::Slot(5)),
        );
        apply_fragment(&mut value, &StateKey::Code(Address::from_low(1)), None);
        assert_eq!(value, None);
    }
}
