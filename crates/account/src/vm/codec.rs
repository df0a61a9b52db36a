//! The binary encoding of contract code: the one form the state root digests,
//! the disk journal stores and [`Contract::code_hash`] hashes.

use crate::vm::{Contract, OpCode};
use blockconc_types::Address;

const PUSH: u8 = 1;
const POP: u8 = 2;
const DUP: u8 = 3;
const SWAP: u8 = 4;
const ADD: u8 = 5;
const SUB: u8 = 6;
const MUL: u8 = 7;
const DIV: u8 = 8;
const SLOAD: u8 = 9;
const SSTORE: u8 = 10;
const SADD: u8 = 11;
const CALLER: u8 = 12;
const CALL_VALUE: u8 = 13;
const SELF_BALANCE: u8 = 14;
const ARG: u8 = 15;
const JUMP: u8 = 16;
const JUMP_IF_ZERO: u8 = 17;
const TRANSFER: u8 = 18;
const TRANSFER_ARG: u8 = 19;
const CALL: u8 = 20;
const CALL_ARG: u8 = 21;
const LOG: u8 = 22;
const STOP: u8 = 23;
const REVERT: u8 = 24;

impl Contract {
    /// The code's binary encoding:
    ///
    /// ```text
    /// [count: u64 LE] then, per instruction, [tag: u8][operand]
    /// ```
    ///
    /// The tag is the instruction's position in [`OpCode`]'s declaration,
    /// counted from 1. The operand is little-endian and fixed-width per tag: a
    /// `u64` for `Push`, `Jump` and `JumpIfZero` (jump targets widened from
    /// `usize`), the 20 raw bytes of an [`Address`] for `Transfer` and `Call`,
    /// one byte for `Arg`, `TransferArg` and `CallArg`, and nothing for the
    /// rest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 9 * self.len());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for op in self.code() {
            let mut put = |tag: u8, operand: &[u8]| {
                out.push(tag);
                out.extend_from_slice(operand);
            };
            match *op {
                OpCode::Push(v) => put(PUSH, &v.to_le_bytes()),
                OpCode::Pop => put(POP, &[]),
                OpCode::Dup => put(DUP, &[]),
                OpCode::Swap => put(SWAP, &[]),
                OpCode::Add => put(ADD, &[]),
                OpCode::Sub => put(SUB, &[]),
                OpCode::Mul => put(MUL, &[]),
                OpCode::Div => put(DIV, &[]),
                OpCode::SLoad => put(SLOAD, &[]),
                OpCode::SStore => put(SSTORE, &[]),
                OpCode::SAdd => put(SADD, &[]),
                OpCode::Caller => put(CALLER, &[]),
                OpCode::CallValue => put(CALL_VALUE, &[]),
                OpCode::SelfBalance => put(SELF_BALANCE, &[]),
                OpCode::Arg(n) => put(ARG, &[n]),
                OpCode::Jump(to) => put(JUMP, &(to as u64).to_le_bytes()),
                OpCode::JumpIfZero(to) => put(JUMP_IF_ZERO, &(to as u64).to_le_bytes()),
                OpCode::Transfer(to) => put(TRANSFER, to.as_bytes()),
                OpCode::TransferArg(n) => put(TRANSFER_ARG, &[n]),
                OpCode::Call(to) => put(CALL, to.as_bytes()),
                OpCode::CallArg(n) => put(CALL_ARG, &[n]),
                OpCode::Log => put(LOG, &[]),
                OpCode::Stop => put(STOP, &[]),
                OpCode::Revert => put(REVERT, &[]),
            }
        }
        out
    }

    /// Decodes what [`Contract::encode`] wrote. The instruction count is
    /// checked against the bytes left before anything is allocated for it,
    /// and every byte must belong to an instruction.
    ///
    /// # Errors
    ///
    /// Returns what was rejected: a short count or operand, a count past the
    /// end, an unknown tag, a jump target past `usize` or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Contract, &'static str> {
        let mut r = Reader(bytes);
        let count = u64::from_le_bytes(r.array()?);
        // Every instruction takes at least its tag byte.
        if count > r.0.len() as u64 {
            return Err("the instruction count overruns the code");
        }
        let mut code = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let op = match r.array::<1>()?[0] {
                PUSH => OpCode::Push(u64::from_le_bytes(r.array()?)),
                POP => OpCode::Pop,
                DUP => OpCode::Dup,
                SWAP => OpCode::Swap,
                ADD => OpCode::Add,
                SUB => OpCode::Sub,
                MUL => OpCode::Mul,
                DIV => OpCode::Div,
                SLOAD => OpCode::SLoad,
                SSTORE => OpCode::SStore,
                SADD => OpCode::SAdd,
                CALLER => OpCode::Caller,
                CALL_VALUE => OpCode::CallValue,
                SELF_BALANCE => OpCode::SelfBalance,
                ARG => OpCode::Arg(r.array::<1>()?[0]),
                JUMP => OpCode::Jump(r.target()?),
                JUMP_IF_ZERO => OpCode::JumpIfZero(r.target()?),
                TRANSFER => OpCode::Transfer(Address::from_bytes(r.array()?)),
                TRANSFER_ARG => OpCode::TransferArg(r.array::<1>()?[0]),
                CALL => OpCode::Call(Address::from_bytes(r.array()?)),
                CALL_ARG => OpCode::CallArg(r.array::<1>()?[0]),
                LOG => OpCode::Log,
                STOP => OpCode::Stop,
                REVERT => OpCode::Revert,
                _ => return Err("unknown instruction tag"),
            };
            code.push(op);
        }
        if !r.0.is_empty() {
            return Err("trailing bytes after the last instruction");
        }
        Ok(Contract::new(code))
    }
}

/// Reads encoded code front to back.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        if N > self.0.len() {
            return Err("the code ends inside a field");
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("split at N"))
    }

    fn target(&mut self) -> Result<usize, &'static str> {
        usize::try_from(u64::from_le_bytes(self.array()?))
            .map_err(|_| "a jump target does not fit in usize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every instruction, its operand (if any) built from `raw`.
    fn all_ops(raw: u64) -> [OpCode; 24] {
        let byte = raw as u8;
        let address = Address::from_bytes(std::array::from_fn(|i| byte.wrapping_add(i as u8)));
        [
            OpCode::Push(raw),
            OpCode::Pop,
            OpCode::Dup,
            OpCode::Swap,
            OpCode::Add,
            OpCode::Sub,
            OpCode::Mul,
            OpCode::Div,
            OpCode::SLoad,
            OpCode::SStore,
            OpCode::SAdd,
            OpCode::Caller,
            OpCode::CallValue,
            OpCode::SelfBalance,
            OpCode::Arg(byte),
            OpCode::Jump(raw as usize),
            OpCode::JumpIfZero(raw as usize),
            OpCode::Transfer(address),
            OpCode::TransferArg(byte),
            OpCode::Call(address),
            OpCode::CallArg(byte),
            OpCode::Log,
            OpCode::Stop,
            OpCode::Revert,
        ]
    }

    /// Operands that sit on a width's edges.
    const EDGES: [u64; 6] = [0, 1, 0xff, u32::MAX as u64 + 1, u64::MAX - 1, u64::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Any sequence of any instructions, operands at the edges of their
        // widths or anywhere between, decodes to itself; every strict prefix
        // of its encoding is rejected.
        #[test]
        fn code_round_trips(
            picks in proptest::collection::vec(
                (0usize..24, 0usize..EDGES.len(), 0u64..u64::MAX, 0u8..2),
                0..64,
            ),
        ) {
            let code: Vec<OpCode> = picks
                .iter()
                .map(|&(op, edge, raw, at_edge)| {
                    all_ops(if at_edge == 0 { EDGES[edge] } else { raw })[op]
                })
                .collect();
            let contract = Contract::new(code);
            let bytes = contract.encode();
            prop_assert_eq!(Contract::decode(&bytes), Ok(contract.clone()));
            for cut in 0..bytes.len() {
                prop_assert!(Contract::decode(&bytes[..cut]).is_err(), "prefix {}", cut);
            }
        }
    }

    #[test]
    fn every_instruction_round_trips_at_its_extremes() {
        for raw in EDGES {
            let contract = Contract::new(all_ops(raw).to_vec());
            assert_eq!(Contract::decode(&contract.encode()), Ok(contract));
        }
        // Every byte value of an address and of a one-byte operand.
        for byte in 0..=u8::MAX {
            let contract = Contract::new(all_ops(byte as u64).to_vec());
            assert_eq!(Contract::decode(&contract.encode()), Ok(contract));
        }
        let tags: Vec<u8> = all_ops(0)
            .iter()
            .map(|op| Contract::new(vec![*op]).encode()[8])
            .collect();
        assert_eq!(
            tags,
            (1..=24).collect::<Vec<u8>>(),
            "one tag per instruction"
        );
    }

    /// The encoding, byte for byte. A change here moves the state root of
    /// every state that holds code, and the code hash of every contract.
    #[test]
    fn encoding_is_pinned() {
        let contract = Contract::new(vec![
            OpCode::Push(0x0102),
            OpCode::Arg(7),
            OpCode::JumpIfZero(5),
            OpCode::Transfer(Address::from_bytes(std::array::from_fn(|i| 0xa0 + i as u8))),
            OpCode::SAdd,
            OpCode::Stop,
        ]);
        let hex: String = contract
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let expected = concat!(
            "0600000000000000", // six instructions
            "01",
            "0201000000000000", // Push(0x0102)
            "0f",
            "07", // Arg(7)
            "11",
            "0500000000000000", // JumpIfZero(5)
            "12",
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3", // Transfer(a0..b3)
            "0b",                                       // SAdd
            "17",                                       // Stop
        );
        assert_eq!(hex, expected);
    }

    #[test]
    fn malformed_code_is_rejected() {
        let stop = Contract::new(vec![OpCode::Push(9), OpCode::Stop]).encode();
        // An unknown tag, and a zero tag.
        for tag in [0, 25, 0xff] {
            let mut bytes = stop.clone();
            bytes[8] = tag;
            assert_eq!(Contract::decode(&bytes), Err("unknown instruction tag"));
        }
        // A truncated operand: Push's u64 cut to four bytes.
        let mut truncated = 1u64.to_le_bytes().to_vec();
        truncated.push(PUSH);
        truncated.extend_from_slice(&[9, 0, 0, 0]);
        assert_eq!(
            Contract::decode(&truncated),
            Err("the code ends inside a field")
        );
        // A count past the end, up to u64::MAX, refused before allocating.
        for count in [3, u64::MAX] {
            let mut bytes = stop.clone();
            bytes[..8].copy_from_slice(&count.to_le_bytes());
            assert!(Contract::decode(&bytes).is_err(), "count {count}");
        }
        let mut huge = u64::MAX.to_le_bytes().to_vec();
        huge.push(STOP);
        assert_eq!(
            Contract::decode(&huge),
            Err("the instruction count overruns the code")
        );
        // Trailing bytes after the last instruction.
        let mut trailing = stop.clone();
        trailing.push(STOP);
        assert_eq!(
            Contract::decode(&trailing),
            Err("trailing bytes after the last instruction")
        );
        // A short count, and JSON-era code text.
        assert!(Contract::decode(&[1, 0, 0]).is_err());
        assert!(Contract::decode(br#"{"code":["Stop"]}"#).is_err());
    }
}
