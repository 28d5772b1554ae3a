//! Per-view data-epoch stamps, stored flat in copy-on-write pages.
//!
//! A stamp is the data epochs of a view's distinct base tables (ascending
//! by table) as of its registration or last restamp. Every snapshot
//! publication clones this store, and a write round restamps hundreds of
//! views at once, so the layout is chosen for those two operations: a
//! clone bumps one refcount per [`PAGE_VIEWS`] views, and a restamp
//! copies only the pages holding a restamped view — two flat `memcpy`s
//! each, no per-view allocation either way.

use mv_catalog::TableId;
use mv_parallel::sync::Arc;
use mv_plan::ViewId;

/// Views per page: small enough that restamping one view copies a few
/// kilobytes, large enough that cloning a million-view store stays a few
/// thousand pointer bumps.
const PAGE_VIEWS: usize = 256;

#[derive(Debug, Clone, Default)]
struct StampPage {
    /// `ends[i]` is where view `i`'s stamp ends in `stamps` (it starts
    /// where its predecessor's ends).
    ends: Vec<u32>,
    stamps: Vec<(TableId, u64)>,
}

impl StampPage {
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }
}

/// The stamps of every registered view, indexed by [`ViewId`]. Slots of
/// removed views stay reserved, like the registry's.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewStamps {
    pages: Vec<Arc<StampPage>>,
    len: usize,
}

impl ViewStamps {
    /// Append the stamp of the next view (its id is the current length).
    pub(crate) fn push(&mut self, stamp: impl IntoIterator<Item = (TableId, u64)>) {
        if self.len.is_multiple_of(PAGE_VIEWS) {
            self.pages.push(Arc::default());
        }
        let page = Arc::make_mut(self.pages.last_mut().expect("page pushed above"));
        page.stamps.extend(stamp);
        page.ends.push(page.stamps.len() as u32);
        self.len += 1;
    }

    /// The stamp of `id`; `None` when out of range.
    pub(crate) fn get(&self, id: ViewId) -> Option<&[(TableId, u64)]> {
        let i = id.0 as usize;
        if i >= self.len {
            return None;
        }
        let page = &self.pages[i / PAGE_VIEWS];
        Some(&page.stamps[page.span(i % PAGE_VIEWS)])
    }

    /// The stamp of `id` for rewriting in place, copy-on-writing its page
    /// if a published snapshot still shares it.
    pub(crate) fn get_mut(&mut self, id: ViewId) -> Option<&mut [(TableId, u64)]> {
        let i = id.0 as usize;
        if i >= self.len {
            return None;
        }
        let page = Arc::make_mut(&mut self.pages[i / PAGE_VIEWS]);
        let span = page.span(i % PAGE_VIEWS);
        Some(&mut page.stamps[span])
    }

    /// Every view's stamp, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ViewId, &[(TableId, u64)])> {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            (0..page.ends.len()).map(move |i| {
                (
                    ViewId((p * PAGE_VIEWS + i) as u32),
                    &page.stamps[page.span(i)],
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restamp_copies_one_page_and_leaves_the_clone_untouched() {
        let mut stamps = ViewStamps::default();
        for i in 0..(PAGE_VIEWS as u32 + 3) {
            stamps.push([(TableId(i % 4), 0), (TableId(4), 0)]);
        }
        let published = stamps.clone();
        let last = ViewId(PAGE_VIEWS as u32 + 2);
        stamps.get_mut(last).expect("in range")[1].1 = 7;
        assert_eq!(
            stamps.get(last),
            Some(&[(TableId(2), 0), (TableId(4), 7)][..])
        );
        assert_eq!(
            published.get(last),
            Some(&[(TableId(2), 0), (TableId(4), 0)][..])
        );
        // The untouched first page is still the published one.
        assert!(Arc::ptr_eq(&stamps.pages[0], &published.pages[0]));
        assert!(!Arc::ptr_eq(&stamps.pages[1], &published.pages[1]));
        assert_eq!(stamps.get(ViewId(PAGE_VIEWS as u32 + 3)), None);
        assert_eq!(stamps.iter().count(), PAGE_VIEWS + 3);
        assert_eq!(stamps.iter().last().map(|(id, _)| id), Some(last));
    }
}
