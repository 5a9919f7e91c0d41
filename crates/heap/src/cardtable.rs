//! A card-table remembered set.
//!
//! HotSpot's Parallel Scavenge tracks old-to-young references with a card
//! table: one dirty byte per 512-byte card of the old space, set by the
//! mutator write barrier. At collection time the GC scans dirty cards,
//! walking the objects that overlap them to find the actual references.
//! Compared with G1-style precise remembered sets, the barrier is cheaper
//! (a blind byte store) but collection pays a scanning cost proportional
//! to dirty-card coverage rather than to the number of references.
//!
//! The reproduction's collectors use precise remsets by default (both
//! behave identically for the paper's experiments); the card table is
//! selectable per heap for the remset-mechanism ablation and to mirror
//! the stock PS design.

use crate::addr::Addr;
use crate::region::RegionId;

/// log2 of the bytes one card covers (512).
const CARD_SHIFT: u32 = 9;

/// A card table covering the whole heap address range.
#[derive(Debug, Clone)]
pub struct CardTable {
    cards: Vec<u8>,
    region_shift: u32,
    cards_per_region: u32,
    /// Regions with at least one dirty card (coarse index so collection
    /// does not scan the table for clean regions).
    dirty_regions: Vec<bool>,
}

impl CardTable {
    /// Creates a clean card table for a heap of `regions` regions of
    /// `1 << region_shift` bytes each.
    pub fn new(regions: u32, region_shift: u32) -> CardTable {
        let cards_per_region = 1u32 << (region_shift - CARD_SHIFT);
        // Address space starts at region index 1 (null protection).
        let cards = vec![0u8; ((regions as usize + 1) * cards_per_region as usize) + 1];
        CardTable {
            cards,
            region_shift,
            cards_per_region,
            dirty_regions: vec![false; regions as usize],
        }
    }

    #[inline]
    fn index(&self, slot: Addr) -> usize {
        (slot.raw() >> CARD_SHIFT) as usize
    }

    /// Marks the card containing `slot` dirty. Out-of-range addresses
    /// (auxiliary cache regions) are ignored.
    pub fn dirty(&mut self, slot: Addr) {
        let i = self.index(slot);
        if i < self.cards.len() {
            self.cards[i] = 1;
            let region = slot.region(self.region_shift) as usize;
            if region < self.dirty_regions.len() {
                self.dirty_regions[region] = true;
            }
        }
    }

    /// Whether the card containing `slot` is dirty.
    pub fn is_dirty(&self, slot: Addr) -> bool {
        let i = self.index(slot);
        i < self.cards.len() && self.cards[i] != 0
    }

    /// Whether `region` has any dirty card.
    pub fn region_dirty(&self, region: RegionId) -> bool {
        self.dirty_regions
            .get(region as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of dirty cards in `region`.
    pub fn dirty_cards_in_region(&self, region: RegionId) -> u32 {
        if !self.region_dirty(region) {
            return 0;
        }
        let start = ((region as u64 + 1) << self.region_shift >> CARD_SHIFT) as usize;
        let end = start + self.cards_per_region as usize;
        self.cards[start..end.min(self.cards.len())]
            .iter()
            .map(|&c| c as u32)
            .sum()
    }

    /// Clears all cards of `region`, returning how many were dirty.
    pub fn clear_region(&mut self, region: RegionId) -> u32 {
        let dirty = self.dirty_cards_in_region(region);
        if dirty > 0 {
            let start = ((region as u64 + 1) << self.region_shift >> CARD_SHIFT) as usize;
            let end = (start + self.cards_per_region as usize).min(self.cards.len());
            self.cards[start..end].fill(0);
        }
        if (region as usize) < self.dirty_regions.len() {
            self.dirty_regions[region as usize] = false;
        }
        dirty
    }

    /// Cards per region (scanning granularity).
    pub fn cards_per_region(&self) -> u32 {
        self.cards_per_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHIFT: u32 = 16; // 64 KiB regions → 128 cards each

    #[test]
    fn dirty_and_query_roundtrip() {
        let mut ct = CardTable::new(8, SHIFT);
        let slot = Addr::from_parts(3, 1000, SHIFT);
        assert!(!ct.is_dirty(slot));
        ct.dirty(slot);
        assert!(ct.is_dirty(slot));
        // Same card, different word.
        assert!(ct.is_dirty(Addr::from_parts(3, 1008, SHIFT)));
        // Different card.
        assert!(!ct.is_dirty(Addr::from_parts(3, 2048, SHIFT)));
        assert!(ct.region_dirty(3));
        assert!(!ct.region_dirty(2));
    }

    #[test]
    fn counts_and_clears_per_region() {
        let mut ct = CardTable::new(8, SHIFT);
        ct.dirty(Addr::from_parts(2, 0, SHIFT));
        ct.dirty(Addr::from_parts(2, 600, SHIFT));
        ct.dirty(Addr::from_parts(2, 640, SHIFT)); // same card as 600
        ct.dirty(Addr::from_parts(5, 0, SHIFT));
        assert_eq!(ct.dirty_cards_in_region(2), 2);
        assert_eq!(ct.dirty_cards_in_region(5), 1);
        assert_eq!(ct.dirty_cards_in_region(0), 0);
        assert_eq!(ct.clear_region(2), 2);
        assert_eq!(ct.dirty_cards_in_region(2), 0);
        assert!(!ct.region_dirty(2));
        assert!(ct.region_dirty(5), "other regions untouched");
    }

    #[test]
    fn out_of_range_slots_are_ignored() {
        let mut ct = CardTable::new(2, SHIFT);
        // An auxiliary region far past the Java heap.
        let aux = Addr::from_parts(1000, 0, SHIFT);
        ct.dirty(aux);
        assert!(!ct.is_dirty(aux));
    }

    #[test]
    fn cards_per_region_matches_geometry() {
        let ct = CardTable::new(4, SHIFT);
        assert_eq!(ct.cards_per_region(), (1 << SHIFT) / 512);
    }
}
