//! Every manifest of the workspace names only what its sources use.
//!
//! Plain string scanning, no TOML crate: the manifests here use only
//! `key = …` and `key.workspace = true` lines under `[dependencies]`,
//! `[dev-dependencies]` and `[workspace.dependencies]`. Three rules:
//!
//! - each dependency key of each member is named (with `-` read as `_`)
//!   in that package's own `.rs` files;
//! - each `[workspace.dependencies]` key is a dependency of some member;
//! - each directory under `vendor/` is a workspace dependency.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The entry lines of a manifest's `[name]` section, in file order.
fn section_lines<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let mut lines = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            lines.push(line);
        }
    }
    lines
}

/// The keys of a manifest's `[name]` section: what precedes the first `=`
/// or `.` of each entry line.
fn section_keys(manifest: &str, name: &str) -> Vec<String> {
    section_lines(manifest, name)
        .into_iter()
        .map(|line| {
            line.split(['=', '.'])
                .next()
                .unwrap_or_default()
                .trim()
                .to_string()
        })
        .collect()
}

fn dependency_keys(manifest: &str) -> Vec<String> {
    let mut keys = section_keys(manifest, "dependencies");
    keys.extend(section_keys(manifest, "dev-dependencies"));
    keys
}

/// The quoted strings of the root manifest's `members = [...]` list.
fn member_globs(manifest: &str) -> Vec<String> {
    let start = manifest.find("members").expect("[workspace] members");
    let list = &manifest[start..];
    let list = &list[list.find('[').unwrap() + 1..list.find(']').unwrap()];
    list.split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Every member package directory: the root package, then each directory a
/// `members` entry names (a trailing `/*` expands to its subdirectories that
/// hold a `Cargo.toml`).
fn members() -> Vec<PathBuf> {
    let root = root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let mut dirs = vec![root.clone()];
    for glob in member_globs(&manifest) {
        match glob.strip_suffix("/*") {
            Some(parent) => {
                let mut found: Vec<PathBuf> = fs::read_dir(root.join(parent))
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.join("Cargo.toml").is_file())
                    .collect();
                found.sort();
                dirs.extend(found);
            }
            None => dirs.push(root.join(glob)),
        }
    }
    dirs
}

/// The text of every `.rs` file of the package at `dir`, skipping `target`,
/// hidden directories and nested packages (any subdirectory with its own
/// `Cargo.toml`).
fn package_sources(dir: &Path, out: &mut String) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') && !path.join("Cargo.toml").is_file() {
                package_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push_str(&fs::read_to_string(&path).unwrap());
            out.push('\n');
        }
    }
}

/// Whether `ident` occurs in `text` as a whole identifier.
fn names(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_member_dependency_is_named_in_its_sources() {
    let mut unused = Vec::new();
    for dir in members() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let mut sources = String::new();
        package_sources(&dir, &mut sources);
        for key in dependency_keys(&manifest) {
            if !names(&sources, &key.replace('-', "_")) {
                unused.push(format!("{}: {key}", dir.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "dependencies no source names: {unused:#?}"
    );
}

#[test]
fn every_workspace_dependency_is_used_by_a_member() {
    let root_manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let used: Vec<String> = members()
        .iter()
        .flat_map(|dir| dependency_keys(&fs::read_to_string(dir.join("Cargo.toml")).unwrap()))
        .collect();
    let unused: Vec<String> = section_keys(&root_manifest, "workspace.dependencies")
        .into_iter()
        .filter(|key| !used.contains(key))
        .collect();
    assert!(
        unused.is_empty(),
        "workspace dependencies no member uses: {unused:?}"
    );
}

#[test]
fn every_vendored_crate_is_a_workspace_dependency() {
    let root_manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let declared = section_lines(&root_manifest, "workspace.dependencies");
    let orphans: Vec<String> = fs::read_dir(root().join("vendor"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| {
            let path = format!("\"vendor/{name}\"");
            !declared.iter().any(|line| line.contains(&path))
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "vendored crates no workspace dependency points at: {orphans:?}"
    );
}
