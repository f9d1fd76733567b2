//! # ij-yaml — a minimal, deterministic YAML subset
//!
//! Kubernetes manifests and Helm values files use a small, regular subset of
//! YAML: nested block maps, block sequences, plain/quoted scalars, comments,
//! multi-document streams separated by `---`, and occasionally literal block
//! scalars (`|`). This crate implements exactly that subset with
//! order-preserving maps, precise line-numbered errors, and a canonical
//! emitter, so the rest of the workspace does not need an external YAML
//! dependency.
//!
//! Intentionally unsupported: anchors/aliases, tags, complex (non-string) map
//! keys, and flow styles nested more than one level deep. Kubernetes objects
//! never need these, and refusing them keeps parsing deterministic.
//!
//! ```
//! use ij_yaml::{parse, Value};
//!
//! let doc = parse("
//! apiVersion: v1
//! kind: Service
//! metadata:
//!   name: web
//! spec:
//!   ports:
//!     - port: 80
//!       targetPort: 8080
//! ").unwrap();
//!
//! assert_eq!(doc.path(&["kind"]).and_then(Value::as_str), Some("Service"));
//! assert_eq!(doc.path(&["spec", "ports", "0", "port"]).and_then(Value::as_int), Some(80));
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

mod emit;
mod error;
mod parse;
mod value;

pub use emit::to_string;
pub use error::{Error, Result};
pub use parse::{parse, parse_all};
pub use value::{Map, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_service() {
        let src = "\
apiVersion: v1
kind: Service
metadata:
  name: web
  labels:
    app: web
spec:
  type: ClusterIP
  selector:
    app: web
  ports:
    - name: http
      port: 80
      targetPort: 8080
      protocol: TCP
";
        let v = parse(src).unwrap();
        let emitted = to_string(&v);
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn multi_document_stream() {
        let docs = parse_all("a: 1\n---\nb: 2\n---\nc: 3\n").unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[1].path(&["b"]).and_then(Value::as_int), Some(2));
    }
}
