//! Ordering-aware atomic shims.
//!
//! Inside a model execution every access goes through the scheduler's
//! release/acquire memory model: a relaxed or acquire load may observe
//! any coherence-admissible store (each admissible set > 1 is a DFS
//! branch point), RMWs always operate on the newest store, and release
//! stores carry the writer's vector clock so acquire loads establish
//! happens-before. Outside an execution the shims are plain std atomics.

use std::fmt;

pub use std::sync::atomic::Ordering;

use std::sync::atomic::AtomicU64 as Cell;

use crate::ctx::ctx;
use crate::exec::Object;

macro_rules! atomic_shim {
    ($name:ident, $raw:ty, $prim:ty) => {
        pub struct $name {
            cell: Cell,
            inner: $raw,
        }

        // The casts are identities for the u64 instantiation.
        #[allow(clippy::unnecessary_cast)]
        impl $name {
            pub const fn new(value: $prim) -> $name {
                $name {
                    cell: Cell::new(0),
                    inner: <$raw>::new(value),
                }
            }

            pub fn load(&self, ord: Ordering) -> $prim {
                match ctx() {
                    None => self.inner.load(ord),
                    Some((exec, me)) => {
                        let obj = exec.ensure_object(&self.cell, || {
                            Object::new_atomic(self.inner.load(Ordering::SeqCst) as u64)
                        });
                        exec.op_atomic_load(me, obj, ord) as $prim
                    }
                }
            }

            pub fn store(&self, value: $prim, ord: Ordering) {
                match ctx() {
                    None => self.inner.store(value, ord),
                    Some((exec, me)) => {
                        let obj = exec.ensure_object(&self.cell, || {
                            Object::new_atomic(self.inner.load(Ordering::SeqCst) as u64)
                        });
                        exec.op_atomic_store(me, obj, value as u64, ord, |v| {
                            self.inner.store(v as $prim, Ordering::SeqCst)
                        });
                    }
                }
            }

            fn rmw(&self, ord: Ordering, f: impl FnOnce($prim) -> $prim) -> $prim {
                match ctx() {
                    None => unreachable!("rmw fallback handled per-method"),
                    Some((exec, me)) => {
                        let obj = exec.ensure_object(&self.cell, || {
                            Object::new_atomic(self.inner.load(Ordering::SeqCst) as u64)
                        });
                        exec.op_atomic_rmw(
                            me,
                            obj,
                            ord,
                            |v| f(v as $prim) as u64,
                            |v| self.inner.store(v as $prim, Ordering::SeqCst),
                        ) as $prim
                    }
                }
            }

            pub fn fetch_add(&self, value: $prim, ord: Ordering) -> $prim {
                if ctx().is_none() {
                    return self.inner.fetch_add(value, ord);
                }
                self.rmw(ord, |v| v.wrapping_add(value))
            }

            pub fn fetch_or(&self, value: $prim, ord: Ordering) -> $prim {
                if ctx().is_none() {
                    return self.inner.fetch_or(value, ord);
                }
                self.rmw(ord, |v| v | value)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.inner)
            }
        }

        impl Default for $name {
            fn default() -> $name {
                $name::new(0)
            }
        }
    };
}

atomic_shim!(AtomicU64, std::sync::atomic::AtomicU64, u64);
atomic_shim!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
