//! The catalog: source tables and surrogate-key lookup tables.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hash::Hasher;

use etlopt_core::scalar::Scalar;

use crate::ops::key::{Fnv1a, KeyValue};
use crate::table::Table;

/// Maps source recordset names to tables and surrogate-key lookup names to
/// key→surrogate maps.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    lookups: BTreeMap<String, HashMap<KeyValue, Scalar>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source table under a recordset name.
    pub fn insert(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Fetch a source table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Register a surrogate-key lookup entry. Keys follow the engine's
    /// key equality (`Int(5)` and `Float(5.0)` are one entry), so
    /// heterogeneous key types coexist.
    pub fn insert_lookup(&mut self, lookup: impl Into<String>, key: &Scalar, surrogate: Scalar) {
        self.lookups
            .entry(lookup.into())
            .or_default()
            .insert(KeyValue::of(key), surrogate);
    }

    /// Resolve a surrogate for a key.
    pub fn lookup(&self, lookup: &str, key: &Scalar) -> Option<&Scalar> {
        self.lookup_key(lookup, &KeyValue::of(key))
    }

    /// Resolve a surrogate for an already-computed key.
    pub(crate) fn lookup_key(&self, lookup: &str, key: &KeyValue) -> Option<&Scalar> {
        self.lookups.get(lookup)?.get(key)
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// A deterministic surrogate derived from the key alone (FNV-1a 64 over
/// the key's canonical text). Used when the executor runs with
/// auto-assignment: being a pure function of the key, it is stable under
/// any re-ordering or cloning of the SK activity — which is what makes
/// equivalence checks exact.
pub fn auto_surrogate(key: &Scalar) -> Scalar {
    auto_surrogate_of(&KeyValue::of(key))
}

/// [`auto_surrogate`] of an already-computed key.
pub(crate) fn auto_surrogate_of(key: &KeyValue) -> Scalar {
    let mut hash = Fnv1a::default();
    // Writing into a hasher cannot fail.
    let _ = write!(hash, "{key}");
    // Keep it positive and roomy.
    Scalar::Int((hash.finish() >> 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::schema::Schema;

    #[test]
    fn table_roundtrip() {
        let mut c = Catalog::new();
        c.insert("S", Table::empty(Schema::of(["a"])));
        assert!(c.table("S").is_some());
        assert!(c.table("T").is_none());
        assert_eq!(c.table_count(), 1);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut c = Catalog::new();
        c.insert_lookup("L", &Scalar::Int(5), Scalar::Int(1001));
        assert_eq!(c.lookup("L", &Scalar::Int(5)), Some(&Scalar::Int(1001)));
        assert_eq!(c.lookup("L", &Scalar::Int(6)), None);
        assert_eq!(c.lookup("M", &Scalar::Int(5)), None);
    }

    #[test]
    fn int_and_integral_float_keys_coincide() {
        let mut c = Catalog::new();
        c.insert_lookup("L", &Scalar::Int(5), Scalar::Int(1001));
        assert_eq!(c.lookup("L", &Scalar::Float(5.0)), Some(&Scalar::Int(1001)));
    }

    #[test]
    fn auto_surrogate_is_deterministic_and_distinguishes_keys() {
        let a = auto_surrogate(&Scalar::Int(1));
        let b = auto_surrogate(&Scalar::Int(1));
        let c = auto_surrogate(&Scalar::Int(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(auto_surrogate(&Scalar::Float(1.0)), a);
    }
}
