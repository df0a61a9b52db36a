//! The equivalence oracle: proptest evidence that every engine computes the
//! *same state transition* as [`SequentialEngine`] — bit-identical receipts,
//! bit-identical per-block write sets, identical `state_root` and identical
//! committed accounts — on both the memory and the disk backend, and,
//! for [`OptimisticEngine`], under forced-abort interleavings that exercise the
//! estimate / suspension / re-execution machinery on otherwise conflict-free
//! workloads. The two model evaluators ([`SpeculativeEngine`],
//! [`ScheduledEngine`]) commit through the sequential executor, so what the
//! oracle exercises in them is the discovery pass reading the lent state
//! without disturbing it.
//!
//! Workloads are generated over a small sender pool so blocks routinely contain
//! hot-account conflicts, same-sender nonce chains, bad-nonce failures and
//! unfunded transfers, all in one block. Three contracts are pre-deployed and a
//! good third of the generated transactions is contract traffic, so the per-cell
//! data path — single-cell reads through the version map, sparse scratch
//! accounts, touched-key write sets, in-place cell commit — faces every shape
//! it has a branch for:
//!
//! * a shared per-caller counter (disjoint slots, value into a shared balance);
//! * a token ledger: transfers whose recipient-slot read resolves to a *lower
//!   transaction's version* as often as to base;
//! * a ~1 000-slot "lab" contract whose operations store zero onto live slots
//!   (slot deletion), load absent slots into the receipt's log, `SAdd` into a
//!   sink slot that later transactions load, overwrite slots, write then
//!   revert with value attached, and pay a sender out of the contract's balance
//!   iff a slot is live — a branch an earlier transaction of the block can flip,
//!   funding (or not) the payee's own later transfers;
//! * contract creation followed by calls of the new contract inside the block
//!   (the code cell served from a lower version).
//!
//! The disk runs re-open the store and mount it, so the base state every engine
//! reads is the one the journal recovered (every committed account resident),
//! and re-open it once more after the commit to read back what was journaled.
//!
//! Two fixed blocks pin the branch-flip shape itself — once on a hand-written
//! contract, once spelled in the generator's own plans — through all four
//! engines: an engine that commits by pre-block access sets rather than in
//! block order fails both.
//!
//! Beside the generated blocks, two fixed-seed workload profiles of
//! `blockconc-chainsim` run through the same comparison at 8 workers: the
//! shared-contract / disjoint-slots profile, which per-key tracking must also
//! run (nearly) abort-free, and the commutative-hotspot profile at five hot
//! shares.

use blockconc_account::vm::{Contract, OpCode};
use blockconc_account::{
    account_to_stored, AccountBlock, AccountTransaction, BlockBuilder, Receipt, StateAccess,
    WorldState,
};
use blockconc_chainsim::{AccountWorkloadGen, AccountWorkloadParams};
use blockconc_execution::{
    AbortInjection, ExecutionEngine, OptimisticEngine, ScheduledEngine, SequentialEngine,
    SpeculativeEngine,
};
use blockconc_store::{shared, DeltaRecord, DiskBackend, DiskConfig, MemoryBackend, StoredAccount};
use blockconc_types::{Address, Amount, Hash};
use proptest::collection::vec as any_vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Senders live at 100..100+SENDERS; receivers may extend past the funded pool,
/// so transfers to never-seen accounts are part of every run.
const SENDERS: u64 = 6;

/// A shared per-caller-counter contract, pre-deployed in every run's pre-state.
/// Calls write disjoint storage slots (one per caller) but a shared balance
/// cell when value is attached — mixed key-granular conflict structure.
const CONTRACT: u64 = 777;

/// A token ledger keyed by address low bits; every sender starts with a balance.
const TOKEN: u64 = 778;

/// The lab contract (see [`lab_contract`]), holding [`LAB_SLOTS`] live slots
/// and [`LAB_FUNDS`] sats to pay out of.
const LAB: u64 = 779;
const LAB_SLOTS: u64 = 1_000;
const LAB_FUNDS: u64 = 1_000_000;

/// Receiver rolls from here up turn a plan into contract traffic.
const CALL_MARKER: u64 = SENDERS + 3;
const TOKEN_MARKER: u64 = SENDERS + 4;
const LAB_MARKER: u64 = SENDERS + 5;
const CREATE_MARKER: u64 = SENDERS + 6;
const CALL_CREATED_MARKER: u64 = SENDERS + 7;
const RECEIVER_ROLLS: u64 = SENDERS + 8;

/// One raw generated transaction: `(sender, receiver, sats, nonce_roll)` — a
/// `nonce_roll` below 8 follows the sender's planned chain, otherwise the nonce
/// deliberately misses it. `sats` doubles as the source of a contract call's
/// arguments.
type RawPlan = (u64, u64, u64, u64);

fn plan_strategy() -> impl Strategy<Value = RawPlan> {
    (0..SENDERS, 0..RECEIVER_ROLLS, 1u64..400_000, 0u64..10)
}

/// A contract dispatching on argument 0, slot in argument 1, operand in
/// argument 2:
///
/// * `0` — store zero onto the slot (deletes it if it is live);
/// * `1` — load the slot and log it (an absent slot logs 0: the base miss
///   reaches the receipt);
/// * `2` — `SAdd` the operand into the slot (a commutative sink for the
///   optimistic engine, a read-modify-write for the others);
/// * `3` — store the operand, then revert (with the call's value attached, the
///   value transfer rolls back too);
/// * `5` — pay the address in argument 3 the operand iff the slot is live (a
///   branch that lower transactions of the same block flip by deleting or
///   creating the slot);
/// * anything else — store the operand.
fn lab_contract() -> Contract {
    let dispatch = |op: u64, target: usize| {
        [
            OpCode::Arg(0),
            OpCode::Push(op),
            OpCode::Sub,
            OpCode::JumpIfZero(target),
        ]
    };
    let mut code = Vec::new();
    code.extend(dispatch(0, 20)); // 0..4
    code.extend(dispatch(1, 24)); // 4..8
    code.extend(dispatch(2, 29)); // 8..12
    code.extend(dispatch(5, 39)); // 12..16
    code.extend([
        // 16: store the operand; op 3 reverts afterwards.
        OpCode::Arg(2),
        OpCode::Arg(1),
        OpCode::SStore,
        OpCode::Jump(33),
        // 20: store zero.
        OpCode::Push(0),
        OpCode::Arg(1),
        OpCode::SStore,
        OpCode::Stop,
        // 24: load and log.
        OpCode::Arg(1),
        OpCode::SLoad,
        OpCode::Log,
        OpCode::Pop,
        OpCode::Stop,
        // 29: accumulate.
        OpCode::Arg(2),
        OpCode::Arg(1),
        OpCode::SAdd,
        OpCode::Stop,
        // 33: revert iff op == 3.
        OpCode::Arg(0),
        OpCode::Push(3),
        OpCode::Sub,
        OpCode::JumpIfZero(38),
        OpCode::Stop,
        // 38
        OpCode::Revert,
        // 39: pay iff the slot is live.
        OpCode::Arg(1),
        OpCode::SLoad,
        OpCode::JumpIfZero(44),
        OpCode::Arg(2),
        OpCode::TransferArg(3),
        // 44
        OpCode::Stop,
    ]);
    Contract::new(code)
}

/// The slot a lab call addresses: a handful of hot live slots (so calls collide
/// and read each other's versions), a spread of cold live ones, and slots the
/// contract never held.
fn lab_slot(roll: u64) -> u64 {
    match roll % 4 {
        0 | 1 => roll / 4 % 3,
        2 => roll / 4 % LAB_SLOTS,
        _ => 5_000 + roll / 4 % 3,
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn disk_dir() -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "blockconc-exec-oracle-{}-{seq}",
        std::process::id()
    ))
}

/// Materializes the raw plans into a block. Planned nonces count every
/// transaction a sender *attempts* — a transfer that later fails for funds
/// desynchronizes the chain and turns the sender's remaining transactions into
/// bad-nonce failures, which is exactly the kind of receipt the oracle must
/// reproduce bit-for-bit.
fn build_block(plans: &[RawPlan]) -> AccountBlock {
    let mut next_nonce = [0u64; SENDERS as usize];
    // Where the latest planned creation deploys (if its nonce holds up).
    let mut created = Address::from_low(999);
    let created_code = Arc::new(Contract::counter());
    let txs = plans.iter().map(|&(sender, receiver, sats, nonce_roll)| {
        let nonce = if nonce_roll < 8 {
            let n = next_nonce[sender as usize];
            next_nonce[sender as usize] += 1;
            n
        } else {
            next_nonce[sender as usize] + 7
        };
        let from = Address::from_low(100 + sender);
        let call = |contract: Address, value: u64, args: Vec<u64>| {
            AccountTransaction::contract_call(from, contract, Amount::from_sats(value), args, nonce)
        };
        match receiver {
            CALL_MARKER => call(Address::from_low(CONTRACT), sats, Vec::new()),
            // Move up to the whole opening balance (a sender slot reaching zero
            // is deleted) to another sender's slot.
            TOKEN_MARKER => call(
                Address::from_low(TOKEN),
                0,
                vec![100 + sats % SENDERS, sats / SENDERS % 4 * 250],
            ),
            // Value rides along on a third of the lab calls. A payout (op 5)
            // is sized like a transfer, so it decides whether the payee's own
            // later transfers are funded.
            LAB_MARKER => {
                let op = sats % 6;
                let operand = (1 + sats % 7) * if op == 5 { 50_000 } else { 1 };
                call(
                    Address::from_low(LAB),
                    if sats % 3 == 0 { sats % 1_000 } else { 0 },
                    vec![op, lab_slot(sats / 6), operand, 100 + sats / 7 % SENDERS],
                )
            }
            CREATE_MARKER => {
                created = created_code.deployment_address(from, nonce);
                AccountTransaction::contract_create(from, Arc::clone(&created_code), nonce)
            }
            CALL_CREATED_MARKER => call(created, sats % 100, Vec::new()),
            _ => AccountTransaction::transfer(
                from,
                Address::from_low(100 + receiver),
                Amount::from_sats(sats),
                nonce,
            ),
        }
    });
    BlockBuilder::new(1, 0, Address::from_low(1))
        .transactions(txs)
        .build()
}

/// The complete observable outcome of one engine committing one block.
#[derive(Debug, PartialEq)]
struct Transition {
    receipts: Vec<Receipt>,
    /// The block's write set as `commit_block` would journal it, sorted.
    write_set: Vec<DeltaRecord>,
    state_root: Hash,
    /// Every account the state holds after the commit (on disk, also what a
    /// fresh mount of the journal reads back).
    committed: BTreeMap<Address, StoredAccount>,
}

/// Every account of `state`, in its persisted form.
fn accounts_of(state: &WorldState) -> BTreeMap<Address, StoredAccount> {
    state
        .iter()
        .map(|(address, account)| (*address, account_to_stored(account)))
        .collect()
}

/// The funded, contract-bearing pre-state every run starts from.
fn genesis(funding: &[u64]) -> WorldState {
    let mut state = WorldState::new();
    for (i, sats) in funding.iter().enumerate() {
        state.credit(Address::from_low(100 + i as u64), Amount::from_sats(*sats));
    }
    state.deploy_contract(
        Address::from_low(CONTRACT),
        Arc::new(Contract::per_caller_counter()),
    );
    let token = Address::from_low(TOKEN);
    state.deploy_contract(token, Arc::new(Contract::token()));
    for sender in 0..SENDERS {
        state.storage_set(token, 100 + sender, 750, None);
    }
    let lab = Address::from_low(LAB);
    state.deploy_contract(lab, Arc::new(lab_contract()));
    state.credit(lab, Amount::from_sats(LAB_FUNDS));
    for slot in 0..LAB_SLOTS {
        state.storage_set(lab, slot, 1 + slot, None);
    }
    state
}

/// Mounts the pre-state on a backend — memory, or a disk store at the given
/// directory, which is committed, closed, re-opened and mounted again — then
/// executes `block` with `engine` and commits, returning everything an observer
/// could compare. On disk the journal is re-opened after the commit too, and
/// must read back exactly the accounts the state holds.
fn run_engine(
    engine: &mut dyn ExecutionEngine,
    disk: Option<&PathBuf>,
    mut state: WorldState,
    block: &AccountBlock,
) -> Transition {
    let open = |dir: &PathBuf| shared(DiskBackend::open(&DiskConfig::new(dir)).expect("open"));
    match disk {
        None => state
            .attach_backend(shared(MemoryBackend::new()), None)
            .expect("attach backend"),
        Some(dir) => {
            let genesis = accounts_of(&state);
            state
                .attach_backend(open(dir), None)
                .expect("genesis commit");
            drop(state);
            state = WorldState::new();
            state
                .attach_backend(open(dir), None)
                .expect("attach reopened store");
            assert_eq!(
                accounts_of(&state),
                genesis,
                "every committed account is resident after mount"
            );
        }
    }
    state.begin_block(1).expect("begin block");
    let (executed, _) = engine.execute(&mut state, block).expect("engine run");

    // Snapshot the pending write set off a clone, then really commit it.
    let mut write_set = Vec::new();
    state.clone().take_write_set(&mut write_set);
    write_set.sort_by_key(|record| record.address);
    state.commit_block().expect("commit block");

    let committed = accounts_of(&state);
    let state_root = state.state_root();
    if let Some(dir) = disk {
        drop(state);
        let mut reopened = WorldState::new();
        reopened
            .attach_backend(open(dir), None)
            .expect("attach store after commit");
        assert_eq!(
            accounts_of(&reopened),
            committed,
            "the journal holds what the state committed"
        );
    }
    Transition {
        receipts: executed.receipts().to_vec(),
        write_set,
        state_root,
        committed,
    }
}

/// Requires `engine` to commit `block` over `pre_state` exactly as
/// [`SequentialEngine`] does, on the memory backend or on a re-opened disk store.
fn assert_same_transition(
    pre_state: &WorldState,
    block: &AccountBlock,
    engine: &mut dyn ExecutionEngine,
    on_disk: bool,
) {
    let run = |engine: &mut dyn ExecutionEngine| {
        let dir = on_disk.then(disk_dir);
        let transition = run_engine(engine, dir.as_ref(), pre_state.clone(), block);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        transition
    };
    let seq = run(&mut SequentialEngine::new());
    let name = engine.name();
    let got = run(engine);
    prop_assert_eq!(
        &seq.receipts,
        &got.receipts,
        "{} receipts must be bit-identical",
        name
    );
    prop_assert_eq!(
        &seq.write_set,
        &got.write_set,
        "{} write sets must be bit-identical",
        name
    );
    prop_assert_eq!(
        seq.state_root,
        got.state_root,
        "{} state roots must match",
        name
    );
    prop_assert_eq!(
        &seq.committed,
        &got.committed,
        "{} committed stores must match",
        name
    );
}

fn assert_equivalent(
    funding: &[u64],
    plans: &[RawPlan],
    engine: &mut dyn ExecutionEngine,
    on_disk: bool,
) {
    assert_same_transition(&genesis(funding), &build_block(plans), engine, on_disk);
}

/// Every parallel engine at `threads`: the optimistic engine and the two model
/// evaluators.
fn engines_with(threads: usize) -> [Box<dyn ExecutionEngine>; 3] {
    [
        Box::new(OptimisticEngine::new(threads)),
        Box::new(SpeculativeEngine::new(threads)),
        Box::new(ScheduledEngine::new(threads)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Memory backend: any generated block, any worker count, and both
    // evaluators.
    #[test]
    fn optimistic_matches_sequential_in_memory(
        funding in any_vec(0u64..2_000_000, 6usize),
        plans in any_vec(plan_strategy(), 1..28),
        threads in 1usize..5,
    ) {
        for mut engine in engines_with(threads) {
            assert_equivalent(&funding, &plans, engine.as_mut(), false);
        }
    }

    // Disk backend: the pre-state round-trips through the journal (genesis commit,
    // close, re-open, mount — the engine's base is the recovered state) and the
    // block's write set is journalled on commit and read back by a fresh mount.
    #[test]
    fn optimistic_matches_sequential_on_disk(
        funding in any_vec(0u64..2_000_000, 6usize),
        plans in any_vec(plan_strategy(), 1..16),
        threads in 1usize..5,
    ) {
        for mut engine in engines_with(threads) {
            assert_equivalent(&funding, &plans, engine.as_mut(), true);
        }
    }

    // Forced aborts: deterministically fail validation for a large share of the
    // transactions, driving estimate markers, suspension and re-execution even on
    // conflict-free blocks — the committed transition must not move an inch.
    #[test]
    fn forced_abort_interleavings_stay_equivalent(
        funding in any_vec(0u64..2_000_000, 6usize),
        plans in any_vec(plan_strategy(), 1..20),
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
        percent in 20u64..95,
        disk_roll in 0u64..2,
    ) {
        let mut engine = OptimisticEngine::new(threads).with_forced_aborts(AbortInjection {
            seed,
            percent: percent as u8,
        });
        assert_equivalent(&funding, &plans, &mut engine, disk_roll == 1);
    }
}

/// The generated shapes are only as good as the lab contract's dispatch: pin
/// each operation's effect, sequentially, so a mis-aimed jump cannot quietly
/// turn the contract traffic into no-ops.
#[test]
fn lab_contract_operations_do_what_the_shapes_need() {
    let mut state = genesis(&[1_000_000; SENDERS as usize]);
    let lab = Address::from_low(LAB);
    let mut engine = SequentialEngine::new();
    let mut run = |state: &mut WorldState, nonce: u64, value: u64, args: Vec<u64>| {
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transaction(AccountTransaction::contract_call(
                Address::from_low(100),
                lab,
                Amount::from_sats(value),
                args,
                nonce,
            ))
            .build();
        let (executed, _) = engine.execute(state, &block).expect("engine run");
        executed.receipts()[0].clone()
    };
    assert_eq!(state.storage(lab, 2), 3);
    // 0: a live slot is deleted.
    assert!(run(&mut state, 0, 0, vec![0, 2, 9]).succeeded());
    assert_eq!(state.storage(lab, 2), 0);
    // 1: an absent slot's zero, then a live slot's value, reach the log.
    assert_eq!(run(&mut state, 1, 0, vec![1, 5_001, 9]).logs(), &[0]);
    assert_eq!(run(&mut state, 2, 0, vec![1, 7, 9]).logs(), &[8]);
    // 2: the sink accumulates.
    assert!(run(&mut state, 3, 0, vec![2, 5_000, 4]).succeeded());
    assert!(run(&mut state, 4, 0, vec![2, 5_000, 6]).succeeded());
    assert_eq!(state.storage(lab, 5_000), 10);
    // 3: the store and the attached value both roll back.
    let balance = state.balance(lab);
    assert!(!run(&mut state, 5, 500, vec![3, 1, 99]).succeeded());
    assert_eq!(state.storage(lab, 1), 2);
    assert_eq!(state.balance(lab), balance);
    // 4: a plain overwrite, value attached.
    assert!(run(&mut state, 6, 500, vec![4, 1, 99]).succeeded());
    assert_eq!(state.storage(lab, 1), 99);
    assert_eq!(state.balance(lab), balance + Amount::from_sats(500));
    // 5: a live slot pays the named address, a deleted one pays nobody.
    let (payee, balance) = (Address::from_low(103), state.balance(lab));
    let before = state.balance(payee);
    assert!(run(&mut state, 7, 0, vec![5, 1, 700, 103]).succeeded());
    assert_eq!(state.balance(payee), before + Amount::from_sats(700));
    assert!(run(&mut state, 8, 0, vec![5, 2, 700, 103]).succeeded());
    assert_eq!(state.balance(payee), before + Amount::from_sats(700));
    assert_eq!(state.balance(lab), balance - Amount::from_sats(700));
}

/// The branch-flip block: *A* stores K's slot 0, *C* calls K, which pays V by
/// an internal transfer iff slot 0 is set, and *T* is a transfer out of V that
/// only that payout funds. Against the pre-block state C takes the other branch
/// and never touches V, so read/write sets recorded there call T independent of
/// both; an engine that orders its commit by them runs T first and fails it.
#[test]
fn a_branch_flipped_inside_the_block_commits_like_sequential() {
    let [a, c, k, v, w] = [1u64, 2, 3, 4, 5].map(Address::from_low);
    let mut pre_state = WorldState::new();
    pre_state.credit(a, Amount::from_sats(100_000));
    pre_state.credit(c, Amount::from_sats(100_000));
    pre_state.credit(v, Amount::from_sats(10));
    pre_state.deploy_contract(
        k,
        Arc::new(Contract::new(vec![
            OpCode::Arg(0),
            OpCode::JumpIfZero(6),
            OpCode::Push(1),
            OpCode::Push(0),
            OpCode::SStore,
            OpCode::Stop,
            // 6
            OpCode::Push(0),
            OpCode::SLoad,
            OpCode::JumpIfZero(11),
            OpCode::Push(1000),
            OpCode::Transfer(v),
            // 11
            OpCode::Stop,
        ])),
    );
    pre_state.credit(k, Amount::from_sats(10_000));
    let block = BlockBuilder::new(1, 0, Address::from_low(9))
        .transactions([
            AccountTransaction::contract_call(a, k, Amount::ZERO, vec![1], 0),
            AccountTransaction::contract_call(c, k, Amount::ZERO, vec![0], 0),
            AccountTransaction::transfer(v, w, Amount::from_sats(500), 0),
        ])
        .build();

    let mut sequential_state = pre_state.clone();
    let (executed, _) = SequentialEngine::new()
        .execute(&mut sequential_state, &block)
        .expect("engine run");
    assert!(executed.receipts().iter().all(Receipt::succeeded));
    assert_eq!(sequential_state.balance(w), Amount::from_sats(500));

    let engines: [Box<dyn ExecutionEngine>; 4] = [
        Box::new(SequentialEngine::new()),
        Box::new(SpeculativeEngine::new(2)),
        Box::new(ScheduledEngine::new(2)),
        Box::new(OptimisticEngine::new(2)),
    ];
    for mut engine in engines {
        assert_same_transition(&pre_state, &block, engine.as_mut(), false);
    }
}

/// The same shape out of the generator's own vocabulary — a lab store that
/// creates an absent slot, a lab payout on that slot, and a transfer the payee
/// can only fund from it — pinned through [`build_block`] rather than left to the
/// odds of a few dozen random cases, and run over the reopened disk store as well.
#[test]
fn generated_plans_reach_the_branch_flip() {
    let lab_call = |op: u64, payee: u64| {
        (1u64..400_000)
            .find(|sats| {
                sats % 6 == op
                    && sats % 3 != 0
                    && lab_slot(sats / 6) == 5_000
                    && sats / 7 % SENDERS == payee
            })
            .expect("the plan space holds the call")
    };
    let plans = [
        (0, LAB_MARKER, lab_call(4, 0), 0),
        (1, LAB_MARKER, lab_call(5, 2), 0),
        (2, 3, 40_000, 0),
    ];
    let funding = [1_000_000, 1_000_000, 10, 0, 0, 0];

    let mut state = genesis(&funding);
    let (executed, _) = SequentialEngine::new()
        .execute(&mut state, &build_block(&plans))
        .expect("engine run");
    assert!(executed.receipts().iter().all(Receipt::succeeded));
    assert_eq!(executed.receipts()[1].internal_transactions().len(), 1);
    assert_eq!(
        state.balance(Address::from_low(103)),
        Amount::from_sats(40_000)
    );

    for on_disk in [false, true] {
        for mut engine in engines_with(2) {
            assert_equivalent(&funding, &plans, engine.as_mut(), on_disk);
        }
    }
}

/// Generates `blocks` blocks of `txs` transactions from a workload profile (seed
/// 2020), executes them in sequence on `SequentialEngine` and on the optimistic
/// engine at 8 workers, and requires identical receipts and final roots. Returns
/// the optimistic engine's abort count.
fn profile_matches_sequential(params: AccountWorkloadParams, blocks: u64, txs: usize) -> u64 {
    let mut generator = AccountWorkloadGen::new(params, 2020);
    let built: Vec<AccountBlock> = (1..=blocks)
        .map(|height| {
            BlockBuilder::new(height, 0, Address::from_low(999_999_999))
                .transactions(generator.generate_transactions(txs))
                .build()
        })
        .collect();
    // Generation funds each sender on first sight and executes nothing.
    let pre_state = generator.state().clone();
    let run = |engine: &mut dyn ExecutionEngine| -> (Vec<Receipt>, Hash, u64) {
        let mut state = pre_state.clone();
        let (mut receipts, mut aborts) = (Vec::new(), 0);
        for block in &built {
            let (executed, report) = engine.execute(&mut state, block).expect("engine run");
            receipts.extend_from_slice(executed.receipts());
            aborts += report.aborts;
        }
        (receipts, state.state_root(), aborts)
    };
    let (receipts, root, _) = run(&mut SequentialEngine::new());
    assert!(receipts.iter().all(Receipt::succeeded), "funded and valid");
    let (engine_receipts, engine_root, aborts) = run(&mut OptimisticEngine::new(8));
    assert_eq!(receipts, engine_receipts, "optimistic receipts");
    assert_eq!(root, engine_root, "optimistic state root");
    aborts
}

/// One shared contract, a slot per caller: per-key tracking dissolves the
/// account-level conflicts by construction, so beyond the equivalence only stray
/// same-sender collisions may abort.
#[test]
fn disjoint_slots_profile_matches_sequential_nearly_abort_free() {
    let params = AccountWorkloadParams::shared_contract_disjoint_slots();
    let aborts = profile_matches_sequential(params, 8, 200);
    assert!(
        aborts <= 8 * 200 / 20,
        "{aborts} aborts over 1600 disjoint-slot calls"
    );
}

/// Deposits into one exchange and increments of one fee-sink slot, from none of
/// the traffic to 80% of it.
#[test]
fn commutative_hotspot_profiles_match_sequential_at_every_hot_share() {
    for hot_share in [0.0, 0.2, 0.4, 0.6, 0.8] {
        profile_matches_sequential(
            AccountWorkloadParams::commutative_hotspot(hot_share),
            6,
            200,
        );
    }
}

/// SplitMix64 step for the stress sweep below.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The CI abort-stress entry point: a deterministic sweep of forced-abort
/// interleavings. The base seed comes from the
/// `BLOCKCONC_STRESS_SEED` environment variable (default 0), so a CI loop
/// re-running this test under different values covers a fresh slice of the
/// interleaving space on every iteration while staying reproducible.
#[test]
fn forced_abort_stress_sweep() {
    let offset: u64 = std::env::var("BLOCKCONC_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut rng = offset
        .wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(0xCBF2_9CE4);
    for i in 0..12u64 {
        let funding: Vec<u64> = (0..SENDERS).map(|_| mix(&mut rng) % 2_000_000).collect();
        let plan_count = 4 + (mix(&mut rng) % 20) as usize;
        let plans: Vec<RawPlan> = (0..plan_count)
            .map(|_| {
                (
                    mix(&mut rng) % SENDERS,
                    mix(&mut rng) % RECEIVER_ROLLS,
                    1 + mix(&mut rng) % 400_000,
                    mix(&mut rng) % 10,
                )
            })
            .collect();
        let threads = 2 + (mix(&mut rng) % 3) as usize;
        let injection = AbortInjection {
            seed: mix(&mut rng),
            percent: 65,
        };
        let on_disk = i % 6 == 0;
        let mut engine = OptimisticEngine::new(threads).with_forced_aborts(injection);
        assert_equivalent(&funding, &plans, &mut engine, on_disk);
    }
}
