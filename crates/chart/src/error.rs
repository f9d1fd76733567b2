//! Chart and template errors.

use std::fmt;
use std::path::PathBuf;

/// Result alias for chart operations.
pub type Result<T> = std::result::Result<T, Error>;

/// A typed failure raised while loading a chart directory from disk.
///
/// Every variant carries the offending path, so callers (and the
/// conformance loss report) can point at the exact file instead of a
/// stringly "invalid values" blob. Nothing in the ingestion path panics:
/// unsupported layouts become one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The chart path does not exist or is not a directory.
    NotADirectory {
        /// The path that was passed to [`crate::Chart::from_dir`].
        path: PathBuf,
    },
    /// The directory has no `Chart.yaml`.
    MissingChartYaml {
        /// The `Chart.yaml` path that was probed.
        path: PathBuf,
    },
    /// `Chart.yaml` exists but is not parseable YAML.
    InvalidChartYaml {
        /// The `Chart.yaml` path.
        path: PathBuf,
        /// The underlying YAML error.
        source: ij_yaml::Error,
    },
    /// `values.yaml` exists but is not parseable YAML.
    InvalidValuesYaml {
        /// The `values.yaml` path.
        path: PathBuf,
        /// The underlying YAML error.
        source: ij_yaml::Error,
    },
    /// A `templates/` directory exists but holds no template files at all
    /// (`*.yaml`, `*.yml`, `*.tpl`); a chart without the directory still
    /// loads empty, but an empty directory is almost always a packaging
    /// mistake.
    EmptyTemplates {
        /// The `templates/` directory.
        path: PathBuf,
    },
    /// A chart file is not valid UTF-8.
    NonUtf8File {
        /// The offending file.
        path: PathBuf,
    },
    /// A packed dependency archive (`charts/*.tgz`) was found; this loader
    /// only ingests unpacked subchart directories.
    PackedSubchart {
        /// The archive path.
        path: PathBuf,
    },
    /// Any other filesystem error (permissions, transient I/O, …).
    Io {
        /// The path being read.
        path: PathBuf,
        /// The `std::io::Error` rendering.
        message: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NotADirectory { path } => {
                write!(f, "{}: not a chart directory", path.display())
            }
            IngestError::MissingChartYaml { path } => {
                write!(f, "{}: missing Chart.yaml", path.display())
            }
            IngestError::InvalidChartYaml { path, source } => {
                write!(f, "{}: invalid Chart.yaml: {source}", path.display())
            }
            IngestError::InvalidValuesYaml { path, source } => {
                write!(f, "{}: invalid values.yaml: {source}", path.display())
            }
            IngestError::EmptyTemplates { path } => {
                write!(
                    f,
                    "{}: templates/ directory holds no template files",
                    path.display()
                )
            }
            IngestError::NonUtf8File { path } => {
                write!(f, "{}: not valid UTF-8", path.display())
            }
            IngestError::PackedSubchart { path } => {
                write!(
                    f,
                    "{}: packed subchart archives are not supported (unpack into charts/<name>/)",
                    path.display()
                )
            }
            IngestError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
        }
    }
}

impl From<IngestError> for Error {
    fn from(e: IngestError) -> Self {
        Error::Ingest(e)
    }
}

/// An error raised while building or rendering a chart.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Template syntax error.
    Template {
        /// Template file name.
        template: String,
        /// Description with position information.
        message: String,
    },
    /// A rendered template failed to parse as YAML.
    RenderedYaml {
        /// Template file name.
        template: String,
        /// Underlying YAML error.
        source: ij_yaml::Error,
        /// The rendered text, kept for diagnostics.
        rendered: String,
    },
    /// A rendered document failed to decode as a Kubernetes object.
    Decode {
        /// Template file name.
        template: String,
        /// Underlying model error message.
        message: String,
    },
    /// Values file problems.
    Values(String),
    /// A `required` template function fired.
    Required(String),
    /// A chart directory failed to load from disk.
    Ingest(IngestError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Template { template, message } => {
                write!(f, "template `{template}`: {message}")
            }
            Error::RenderedYaml {
                template, source, ..
            } => {
                write!(f, "template `{template}` rendered invalid YAML: {source}")
            }
            Error::Decode { template, message } => {
                write!(
                    f,
                    "template `{template}` produced an invalid object: {message}"
                )
            }
            Error::Values(m) => write!(f, "invalid values: {m}"),
            Error::Required(m) => write!(f, "required value missing: {m}"),
            Error::Ingest(e) => write!(f, "chart ingest failed: {e}"),
        }
    }
}

impl std::error::Error for Error {}
