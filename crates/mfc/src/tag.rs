//! MFC tag groups.
//!
//! Every DMA command carries one of 32 tags; software waits for
//! completion by tag group (`mfc_write_tag_mask` + `mfc_read_tag_status`).
//! The paper's delayed-synchronization experiment is entirely about *when*
//! to perform that wait.

use std::fmt;

use crate::command::DmaError;

/// One of the 32 MFC tag-group identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(u8);

impl TagId {
    /// Number of tag groups per MFC.
    pub const COUNT: usize = 32;

    /// Creates a tag.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::BadTag`] if `value >= 32`.
    #[inline]
    pub fn new(value: u8) -> Result<TagId, DmaError> {
        if usize::from(value) >= Self::COUNT {
            return Err(DmaError::BadTag(value));
        }
        Ok(TagId(value))
    }

    /// The raw tag value (0..32).
    #[inline]
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// Per-tag outstanding-work counters for one MFC.
///
/// A tag group is *complete* when no queued command and no in-flight
/// packet still references it.
#[derive(Debug, Clone, Default)]
pub struct TagSet {
    pending: [u32; TagId::COUNT],
}

impl TagSet {
    /// A tag set with nothing outstanding.
    pub fn new() -> TagSet {
        TagSet::default()
    }

    /// Records one unit of outstanding work on `tag`.
    #[inline]
    pub fn retain(&mut self, tag: TagId) {
        self.pending[usize::from(tag.value())] += 1;
    }

    /// Releases one unit of outstanding work on `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the tag has no outstanding work — that is a bookkeeping
    /// bug in the caller.
    #[inline]
    pub fn release(&mut self, tag: TagId) {
        let slot = &mut self.pending[usize::from(tag.value())];
        assert!(*slot > 0, "release of idle {tag}");
        *slot -= 1;
    }

    /// Whether the tag group has outstanding work.
    #[inline]
    pub fn is_pending(&self, tag: TagId) -> bool {
        self.pending[usize::from(tag.value())] > 0
    }

    /// Whether any work is outstanding under any tag.
    #[inline]
    pub fn any_pending(&self) -> bool {
        self.pending.iter().any(|&c| c > 0)
    }

    /// Whether every tag in `mask` (bit *i* = tag *i*) is complete —
    /// the `mfc_read_tag_status_all` condition.
    #[inline]
    pub fn mask_complete(&self, mask: u32) -> bool {
        (0..TagId::COUNT).all(|i| mask & (1 << i) == 0 || self.pending[i] == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_range_is_validated() {
        assert!(TagId::new(0).is_ok());
        assert!(TagId::new(31).is_ok());
        assert_eq!(TagId::new(32), Err(DmaError::BadTag(32)));
    }

    #[test]
    fn retain_release_round_trip() {
        let mut set = TagSet::new();
        let t = TagId::new(5).unwrap();
        assert!(!set.is_pending(t));
        set.retain(t);
        set.retain(t);
        assert!(set.is_pending(t));
        set.release(t);
        assert!(set.is_pending(t));
        set.release(t);
        assert!(!set.is_pending(t));
        assert!(!set.any_pending());
    }

    #[test]
    fn mask_completion_checks_only_selected_tags() {
        let mut set = TagSet::new();
        set.retain(TagId::new(3).unwrap());
        assert!(set.mask_complete(0b0001)); // tag 0 idle
        assert!(!set.mask_complete(0b1000)); // tag 3 busy
        assert!(!set.mask_complete(0b1001));
    }

    #[test]
    #[should_panic(expected = "release of idle")]
    fn releasing_idle_tag_panics() {
        let mut set = TagSet::new();
        set.release(TagId::new(0).unwrap());
    }
}
