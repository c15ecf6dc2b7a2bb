//! Pending update deltas for a table (MonetDB-style delta processing).
//!
//! DML statements do not touch the persistent columns directly: inserts and
//! deletes accumulate in a [`TableDelta`] and are merged at transaction
//! commit ([`crate::Catalog::commit`]). The commit report says which table
//! and join indices changed, so the recycler can invalidate what derives
//! from them (paper §6.4).

use crate::types::Value;

/// A staged row: one value per column, in schema order.
pub type Row = Vec<Value>;

/// Pending inserts and deletes for one table.
#[derive(Debug, Default, Clone)]
pub struct TableDelta {
    /// Appended rows (will receive fresh OIDs at commit).
    pub inserts: Vec<Row>,
    /// OIDs staged for deletion.
    pub deletes: Vec<u64>,
}

impl TableDelta {
    /// Is there any pending work?
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Clear all staged changes (transaction abort).
    pub fn clear(&mut self) {
        self.inserts.clear();
        self.deletes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_clear() {
        let mut d = TableDelta::default();
        assert!(d.is_empty());
        d.inserts.push(vec![Value::Int(1)]);
        d.deletes.push(7);
        assert!(!d.is_empty());
        d.clear();
        assert!(d.is_empty());
    }
}
