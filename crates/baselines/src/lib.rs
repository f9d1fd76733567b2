//! # ij-baselines — state-of-the-art tool emulators (Table 3)
//!
//! The paper compares its solution against eleven security tools. Each tool
//! is emulated here by its *capability envelope*: what evidence it can see
//! (manifests only, the API server, or runtime state) and which checks it
//! actually ships. The emulators run real logic over the same rendered
//! objects and simulated cluster the analyzer sees — the point being that
//! the misses in Table 3 are *structural* (a single-resource linter cannot
//! join services to pods; an API-reading scanner never inspects sockets),
//! not arbitrary.
//!
//! | tool | type | mechanism emulated |
//! |---|---|---|
//! | Checkov | static | per-resource IaC rules (hostNetwork, missing policy) |
//! | Kubeaudit | static | per-resource audits + namespace policy audit |
//! | KubeLinter | static | per-resource lints + dangling-service lint |
//! | Kube-score | static | per-resource score + dangling-service + policy check |
//! | Kubesec | static | per-resource risk scoring (hostNetwork) |
//! | SLI-KUBE | static | manifest rule set (hostNetwork) |
//! | Kube-bench | runtime | CIS node checks via the API (hostNetwork) |
//! | Kubescape | hybrid | API + manifests; generic duplicate-label hint |
//! | Trivy | hybrid | manifest + API misconfiguration scan (hostNetwork) |
//! | NeuVector | platform | runtime protection; reports hostNetwork exposure |
//! | StackRox | platform | policy engine over API state (hostNetwork) |

mod compare;
mod tools;

pub use compare::{run_comparison, ComparisonRow, Detection, ToolInput};
pub use tools::{Tool, ToolKind};
