//! Object header encoding.
//!
//! Each object starts with one 64-bit header word. In its normal state the
//! header packs the class id and the GC age. During collection a copied
//! object's old header is overwritten with a *forwarding pointer*: the new
//! address tagged with the low bit (heap addresses are 8-byte aligned, so
//! the low bits are free). This mirrors HotSpot's forwarding scheme, which
//! the paper's header map optimization exists to keep off NVM.

use crate::addr::Addr;
use crate::HeapError;

/// Size of the object header in bytes.
pub const HEADER_BYTES: u32 = 8;

const FORWARD_TAG: u64 = 1;

/// A decoded object header word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header(pub u64);

impl Header {
    /// Builds a normal (non-forwarded) header.
    pub fn new(class_id: u32, age: u8) -> Header {
        Header(((class_id as u64) << 32) | ((age as u64) << 8))
    }

    /// Builds a forwarding header pointing at `new_addr`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `new_addr` is null or unaligned.
    pub fn forwarding(new_addr: Addr) -> Header {
        debug_assert!(!new_addr.is_null());
        debug_assert_eq!(new_addr.raw() & 7, 0, "addresses are 8-byte aligned");
        Header(new_addr.raw() | FORWARD_TAG)
    }

    /// Whether the header is a forwarding pointer.
    #[inline]
    pub fn is_forwarded(self) -> bool {
        self.0 & FORWARD_TAG != 0
    }

    /// The forwarding destination, if forwarded.
    #[inline]
    pub fn forwardee(self) -> Option<Addr> {
        if self.is_forwarded() {
            Some(Addr(self.0 & !FORWARD_TAG))
        } else {
            None
        }
    }

    /// The class id of a non-forwarded header.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called on a forwarding header; in
    /// release builds a forwarded header decodes to garbage class bits.
    /// Callers that may meet a forwarding header (verification walks, the
    /// collector's copy path) test [`Header::is_forwarded`] first; crash
    /// recovery decodes the saved pre-forwarding header instead.
    #[inline]
    pub fn class_id(self) -> u32 {
        debug_assert!(!self.is_forwarded());
        (self.0 >> 32) as u32
    }

    /// The GC age of a non-forwarded header.
    #[inline]
    pub fn age(self) -> u8 {
        debug_assert!(!self.is_forwarded());
        (self.0 >> 8) as u8
    }

    /// Checked forwarding install: the forwarding header replacing this
    /// one. Forwarding an already-forwarded header would silently drop
    /// the original forwardee (the install paths used to guard this with
    /// a `debug_assert!` only — release builds overwrote the word), so a
    /// forwarded receiver is a typed error.
    pub fn forward_to(self, new_addr: Addr) -> Result<Header, HeapError> {
        if self.is_forwarded() {
            return Err(HeapError::AlreadyForwarded { raw: self.0 });
        }
        Ok(Header::forwarding(new_addr))
    }

    /// The raw header word.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_header_roundtrips_class_and_age() {
        let h = Header::new(0xDEAD, 7);
        assert!(!h.is_forwarded());
        assert_eq!(h.class_id(), 0xDEAD);
        assert_eq!(h.age(), 7);
        assert_eq!(h.forwardee(), None);
    }

    #[test]
    fn forwarding_header_roundtrips_address() {
        let a = Addr(0x10_0040);
        let h = Header::forwarding(a);
        assert!(h.is_forwarded());
        assert_eq!(h.forwardee(), Some(a));
    }

    #[test]
    fn forward_to_rejects_already_forwarded_headers() {
        // Pinned regression: installing a forwarding pointer over a
        // header that is already a forwarding pointer used to be a
        // debug_assert!-only guard — release builds silently overwrote
        // the word, losing the original forwardee. It is now a typed
        // error the collector surfaces as an oracle violation.
        let fwd = Header::forwarding(Addr(0x10_0040));
        assert_eq!(
            fwd.forward_to(Addr(0x10_0080)),
            Err(HeapError::AlreadyForwarded { raw: fwd.raw() })
        );
        let normal = Header::new(7, 3);
        assert_eq!(
            normal.forward_to(Addr(0x10_0080)),
            Ok(Header::forwarding(Addr(0x10_0080)))
        );
    }

    #[test]
    fn raw_roundtrip() {
        let h = Header::new(42, 9);
        assert_eq!(Header(h.raw()), h);
    }
}
