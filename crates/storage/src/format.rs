//! The 2-byte node record format.
//!
//! "Each node v is stored as a fixed-size field of k bytes on disk in
//! which the two highest bits denote whether v has a first and/or a
//! second child and the remaining 8k−2 bits are used to hold an integer
//! denoting the label of v. [...] In our implementation, by default,
//! k = 2, and the tree can therefore contain 2^14 = 16384 different
//! labels." (paper Section 5)

use arb_tree::{LabelId, NodeInfo};

/// Bytes per node record (the paper's default `k`).
pub const RECORD_BYTES: usize = 2;

/// Bit flag: the node has a first child.
const HAS_FIRST: u16 = 1 << 15;
/// Bit flag: the node has a second child.
const HAS_SECOND: u16 = 1 << 14;
/// Mask for the 14-bit label.
const LABEL_MASK: u16 = (1 << 14) - 1;

/// A decoded node record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeRecord {
    /// Node label (14 bits).
    pub label: LabelId,
    /// Whether a first child follows.
    pub has_first: bool,
    /// Whether a second child exists.
    pub has_second: bool,
}

impl NodeRecord {
    /// Encodes to the on-disk `u16`. The label must already be in the
    /// 14-bit label space — writers that accept caller-supplied labels
    /// go through [`NodeRecord::checked_bytes`] instead, which turns an
    /// out-of-range label into an error rather than wrapping it.
    #[inline]
    pub fn encode(self) -> u16 {
        debug_assert!(self.label.0 <= LABEL_MASK);
        (self.label.0 & LABEL_MASK)
            | if self.has_first { HAS_FIRST } else { 0 }
            | if self.has_second { HAS_SECOND } else { 0 }
    }

    /// Checked encoding: errors on a label outside the 14-bit space.
    /// `create_from_tree` accepts arbitrary `LabelId`s from callers, so
    /// the unchecked [`NodeRecord::encode`] (a `debug_assert!` plus a
    /// mask) used to truncate such labels silently in release builds —
    /// writing a *different* label to disk with no diagnostic.
    #[inline]
    pub fn checked_bytes(self) -> std::io::Result<[u8; RECORD_BYTES]> {
        if self.label.0 > LABEL_MASK {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("label #{} outside the 14-bit label space", self.label.0),
            ));
        }
        Ok(self.to_bytes())
    }

    /// Decodes from the on-disk `u16`.
    #[inline]
    pub fn decode(raw: u16) -> Self {
        NodeRecord {
            label: LabelId(raw & LABEL_MASK),
            has_first: raw & HAS_FIRST != 0,
            has_second: raw & HAS_SECOND != 0,
        }
    }

    /// On-disk little-endian bytes.
    #[inline]
    pub fn to_bytes(self) -> [u8; RECORD_BYTES] {
        self.encode().to_le_bytes()
    }

    /// Decodes from on-disk bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; RECORD_BYTES]) -> Self {
        Self::decode(u16::from_le_bytes(bytes))
    }

    /// The automaton input symbol for this record at preorder index `ix`
    /// (index 0 is the root).
    #[inline]
    pub fn info(self, ix: u32) -> NodeInfo {
        NodeInfo {
            label: self.label,
            has_first: self.has_first,
            has_second: self.has_second,
            is_root: ix == 0,
        }
    }
}

impl arb_tree::traverse::Record for NodeRecord {
    #[inline]
    fn has_first(self) -> bool {
        self.has_first
    }

    #[inline]
    fn has_second(self) -> bool {
        self.has_second
    }

    #[inline]
    fn info(self, ix: u32) -> NodeInfo {
        NodeRecord::info(self, ix)
    }
}

impl From<NodeInfo> for NodeRecord {
    fn from(info: NodeInfo) -> Self {
        NodeRecord {
            label: info.label,
            has_first: info.has_first,
            has_second: info.has_second,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_flag_combinations() {
        for label in [0u16, 1, 255, 256, 16383] {
            for has_first in [false, true] {
                for has_second in [false, true] {
                    let r = NodeRecord {
                        label: LabelId(label),
                        has_first,
                        has_second,
                    };
                    assert_eq!(NodeRecord::decode(r.encode()), r);
                    assert_eq!(NodeRecord::from_bytes(r.to_bytes()), r);
                }
            }
        }
    }

    #[test]
    fn flags_in_two_highest_bits() {
        let r = NodeRecord {
            label: LabelId(0),
            has_first: true,
            has_second: true,
        };
        assert_eq!(r.encode(), 0b1100_0000_0000_0000);
        let r = NodeRecord {
            label: LabelId(LABEL_MASK),
            has_first: false,
            has_second: false,
        };
        assert_eq!(r.encode(), LABEL_MASK);
    }

    #[test]
    fn checked_encoding_rejects_out_of_range_labels() {
        let bad = NodeRecord {
            label: LabelId(1 << 14),
            has_first: false,
            has_second: false,
        };
        let err = bad.checked_bytes().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let good = NodeRecord {
            label: LabelId((1 << 14) - 1),
            has_first: true,
            has_second: false,
        };
        assert_eq!(good.checked_bytes().unwrap(), good.to_bytes());
    }

    #[test]
    fn info_marks_root_at_index_zero() {
        let r = NodeRecord {
            label: LabelId(300),
            has_first: true,
            has_second: false,
        };
        assert!(r.info(0).is_root);
        assert!(!r.info(5).is_root);
    }
}
