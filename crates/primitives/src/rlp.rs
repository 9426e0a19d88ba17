//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is Ethereum's canonical serialization for trie nodes, accounts and
//! transactions. The Merkle Patricia Trie in `dmvcc-state` hashes the RLP
//! encoding of its nodes, so the encoding must be exact for state-root
//! comparisons to be meaningful.
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::rlp::{encode_bytes, encode_list, Rlp};
//!
//! // "dog" encodes as 0x83 'd' 'o' 'g'.
//! assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
//!
//! // ["cat", "dog"] encodes as a list.
//! let list = encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]);
//! assert_eq!(list[0], 0xc8);
//!
//! let decoded = Rlp::decode(&list)?;
//! # Ok::<(), dmvcc_primitives::rlp::RlpError>(())
//! ```

use core::fmt;

/// A decoded RLP item: either a byte string or a list of items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rlp {
    /// A byte string.
    Bytes(Vec<u8>),
    /// A list of nested items.
    List(Vec<Rlp>),
}

/// Error returned when decoding malformed RLP data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlpError {
    /// The input ended before the announced payload length.
    UnexpectedEof,
    /// A length prefix was not minimally encoded or otherwise invalid.
    InvalidLength,
    /// Extra bytes remained after the top-level item.
    TrailingBytes,
}

impl fmt::Display for RlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlpError::UnexpectedEof => f.write_str("unexpected end of RLP input"),
            RlpError::InvalidLength => f.write_str("invalid RLP length prefix"),
            RlpError::TrailingBytes => f.write_str("trailing bytes after RLP item"),
        }
    }
}

impl std::error::Error for RlpError {}

/// Appends the RLP header announcing a `len`-byte payload: `offset` is
/// `0x80` for a byte string, `0xc0` for a list.
pub fn encode_length(len: usize, offset: u8, out: &mut Vec<u8>) {
    if len <= 55 {
        out.push(offset + len as u8);
    } else {
        let len_bytes = len.to_be_bytes();
        let first = len_bytes.iter().position(|&b| b != 0).unwrap_or(7);
        let significant = &len_bytes[first..];
        out.push(offset + 55 + significant.len() as u8);
        out.extend_from_slice(significant);
    }
}

/// Size of the header [`encode_length`] appends for a `len`-byte payload.
pub fn length_prefix_len(len: usize) -> usize {
    if len <= 55 {
        1
    } else {
        1 + (usize::BITS - len.leading_zeros()).div_ceil(8) as usize
    }
}

/// Encodes a byte string.
pub fn encode_bytes(data: &[u8]) -> Vec<u8> {
    if data.len() == 1 && data[0] < 0x80 {
        return vec![data[0]];
    }
    let mut out = Vec::with_capacity(data.len() + 9);
    encode_length(data.len(), 0x80, &mut out);
    out.extend_from_slice(data);
    out
}

/// Encodes a list from already-encoded item payloads.
pub fn encode_list(items: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = items.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(payload_len + 9);
    encode_length(payload_len, 0xc0, &mut out);
    for item in items {
        out.extend_from_slice(item);
    }
    out
}

/// Encodes an unsigned integer using the minimal big-endian byte form
/// (zero encodes as the empty string, per the Ethereum convention).
pub fn encode_uint(value: u64) -> Vec<u8> {
    if value == 0 {
        return encode_bytes(&[]);
    }
    let bytes = value.to_be_bytes();
    let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
    encode_bytes(&bytes[first..])
}

impl Rlp {
    /// Decodes a single top-level RLP item.
    ///
    /// # Errors
    ///
    /// Returns [`RlpError`] if the input is truncated, has an invalid length
    /// prefix, or contains trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Rlp, RlpError> {
        let (item, consumed) = Self::decode_prefix(data)?;
        if consumed != data.len() {
            return Err(RlpError::TrailingBytes);
        }
        Ok(item)
    }

    fn decode_prefix(data: &[u8]) -> Result<(Rlp, usize), RlpError> {
        let first = *data.first().ok_or(RlpError::UnexpectedEof)?;
        match first {
            0x00..=0x7f => Ok((Rlp::Bytes(vec![first]), 1)),
            0x80..=0xb7 => {
                let len = (first - 0x80) as usize;
                let payload = data.get(1..1 + len).ok_or(RlpError::UnexpectedEof)?;
                if len == 1 && payload[0] < 0x80 {
                    return Err(RlpError::InvalidLength); // non-minimal
                }
                Ok((Rlp::Bytes(payload.to_vec()), 1 + len))
            }
            0xb8..=0xbf => {
                let len_len = (first - 0xb7) as usize;
                let len = Self::read_length(data, len_len)?;
                let payload = data
                    .get(1 + len_len..1 + len_len + len)
                    .ok_or(RlpError::UnexpectedEof)?;
                Ok((Rlp::Bytes(payload.to_vec()), 1 + len_len + len))
            }
            0xc0..=0xf7 => {
                let len = (first - 0xc0) as usize;
                let payload = data.get(1..1 + len).ok_or(RlpError::UnexpectedEof)?;
                Ok((Rlp::List(Self::decode_items(payload)?), 1 + len))
            }
            0xf8..=0xff => {
                let len_len = (first - 0xf7) as usize;
                let len = Self::read_length(data, len_len)?;
                let payload = data
                    .get(1 + len_len..1 + len_len + len)
                    .ok_or(RlpError::UnexpectedEof)?;
                Ok((Rlp::List(Self::decode_items(payload)?), 1 + len_len + len))
            }
        }
    }

    fn read_length(data: &[u8], len_len: usize) -> Result<usize, RlpError> {
        let bytes = data.get(1..1 + len_len).ok_or(RlpError::UnexpectedEof)?;
        if bytes.first() == Some(&0) {
            return Err(RlpError::InvalidLength); // non-minimal
        }
        let mut len = 0usize;
        for &b in bytes {
            len = len.checked_mul(256).ok_or(RlpError::InvalidLength)? + b as usize;
        }
        if len <= 55 {
            return Err(RlpError::InvalidLength); // should have used short form
        }
        Ok(len)
    }

    fn decode_items(mut payload: &[u8]) -> Result<Vec<Rlp>, RlpError> {
        let mut items = Vec::new();
        while !payload.is_empty() {
            let (item, consumed) = Self::decode_prefix(payload)?;
            items.push(item);
            payload = &payload[consumed..];
        }
        Ok(items)
    }

    /// Returns the byte string if this item is one.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Rlp::Bytes(b) => Some(b),
            Rlp::List(_) => None,
        }
    }

    /// Returns the item list if this item is a list.
    pub fn as_list(&self) -> Option<&[Rlp]> {
        match self {
            Rlp::Bytes(_) => None,
            Rlp::List(items) => Some(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_vectors() {
        // From the Ethereum wiki RLP test vectors.
        assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
        assert_eq!(encode_bytes(b""), vec![0x80]);
        assert_eq!(encode_bytes(&[0x0f]), vec![0x0f]);
        assert_eq!(encode_bytes(&[0x04, 0x00]), vec![0x82, 0x04, 0x00]);
        assert_eq!(encode_list(&[]), vec![0xc0]);
        let cat_dog = encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]);
        assert_eq!(
            cat_dog,
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
    }

    #[test]
    fn long_string() {
        let data = vec![0x61u8; 56];
        let encoded = encode_bytes(&data);
        assert_eq!(encoded[0], 0xb8);
        assert_eq!(encoded[1], 56);
        assert_eq!(&encoded[2..], &data[..]);
    }

    #[test]
    fn long_list() {
        let item = encode_bytes(&[0x61u8; 54]); // 55 bytes encoded
        let list = encode_list(&[item.clone(), item.clone()]);
        assert_eq!(list[0], 0xf8);
        assert_eq!(list[1], 110);
    }

    #[test]
    fn length_prefix_len_matches_encode_length() {
        for len in (0..300).chain([65_535, 65_536, 1 << 24, usize::MAX]) {
            let mut out = Vec::new();
            encode_length(len, 0x80, &mut out);
            assert_eq!(length_prefix_len(len), out.len(), "len {len}");
        }
    }

    #[test]
    fn uint_encoding() {
        assert_eq!(encode_uint(0), vec![0x80]);
        assert_eq!(encode_uint(15), vec![0x0f]);
        assert_eq!(encode_uint(1024), vec![0x82, 0x04, 0x00]);
    }

    #[test]
    fn decode_round_trip_bytes() {
        for data in [&b""[..], b"a", b"dog", &[0x80u8, 1, 2], &[0u8; 100]] {
            let encoded = encode_bytes(data);
            let decoded = Rlp::decode(&encoded).expect("valid");
            assert_eq!(decoded, Rlp::Bytes(data.to_vec()));
        }
    }

    #[test]
    fn decode_round_trip_nested_list() {
        // [ [], [[]], [ [], [[]] ] ] — the "set theoretic" vector.
        let empty = encode_list(&[]);
        let one = encode_list(std::slice::from_ref(&empty));
        let two = encode_list(&[empty.clone(), one.clone()]);
        let top = encode_list(&[empty.clone(), one.clone(), two.clone()]);
        assert_eq!(top, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
        let decoded = Rlp::decode(&top).expect("valid");
        let items = decoded.as_list().expect("list");
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(Rlp::decode(&[0x83, b'd']), Err(RlpError::UnexpectedEof));
        assert_eq!(Rlp::decode(&[]), Err(RlpError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_trailing() {
        assert_eq!(Rlp::decode(&[0x01, 0x02]), Err(RlpError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_non_minimal() {
        // Single byte < 0x80 must encode as itself, not with a prefix.
        assert_eq!(Rlp::decode(&[0x81, 0x01]), Err(RlpError::InvalidLength));
    }

    #[test]
    fn accessors() {
        assert_eq!(Rlp::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert_eq!(Rlp::Bytes(vec![1]).as_list(), None);
        assert_eq!(Rlp::List(vec![]).as_bytes(), None);
        assert!(Rlp::List(vec![]).as_list().is_some());
    }
}
