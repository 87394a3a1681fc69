//! The one entry point for plan artifacts — `acfc plan` emission,
//! `--plan` substitution (launcher and workers), and the compile
//! cache's entries all pass through here, so every plan artifact is the
//! same bytes by construction and cannot drift.

use crate::{Compiled, Error};
use autocfd_codegen::{plan_json, SpmdPlan};

/// Serialize a plan to its schema-versioned JSON form (identical for
/// the `acfc plan -o` artifact and the compile cache's entries).
pub fn plan_to_json(plan: &SpmdPlan) -> String {
    plan_json::to_json(plan)
}

/// Parse a schema-versioned plan JSON document. `origin` names where
/// the text came from (a path) for the error message.
pub fn plan_from_json(text: &str, origin: &str) -> Result<SpmdPlan, Error> {
    parse(text, origin, None)
}

/// [`plan_from_json`], refusing a plan whose rank count is not `ranks`
/// before its subgrids are built.
fn parse(text: &str, origin: &str, ranks: Option<u32>) -> Result<SpmdPlan, Error> {
    plan_json::from_json(text, ranks)
        .map_err(|e| Error::Validation(format!("plan from {origin}: {e}")))
}

/// Read and parse a plan artifact from `path` and substitute it for the
/// plan `compiled` produced — the `--plan FILE` behaviour shared by
/// `acfc` and `acfd-worker`. The only compatibility requirement is that
/// the rank counts agree (the executing mesh is sized by the compile);
/// it is checked while parsing, so a file claiming billions of ranks is
/// refused, not allocated.
pub fn substitute_plan_file(compiled: &mut Compiled, path: &str) -> Result<(), Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Validation(format!("cannot read plan `{path}`: {e}")))?;
    let ranks = compiled.spmd_plan.ranks();
    compiled.spmd_plan = parse(&text, &format!("`{path}`"), Some(ranks))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    const SRC: &str = "
!$acf grid(16, 16)
!$acf status v, vn
      program t
      real v(16,16), vn(16,16)
      integer i, j, it
      do it = 1, 2
        do i = 2, 15
          do j = 2, 15
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
        do i = 2, 15
          do j = 2, 15
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";

    /// Substitute the plan `text` into `compiled` through a plan file.
    fn substitute(compiled: &mut Compiled, tag: &str, text: &str) -> Result<(), Error> {
        let dir = std::env::temp_dir().join(format!("acf-planio-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, text).unwrap();
        let result = substitute_plan_file(compiled, path.to_str().unwrap());
        std::fs::remove_dir_all(&dir).ok();
        result
    }

    #[test]
    fn roundtrip_and_substitution() {
        let mut c = compile(SRC, &CompileOptions::with_partition(&[2, 2])).unwrap();
        let text = plan_to_json(&c.spmd_plan);
        let plan = plan_from_json(&text, "test").unwrap();
        assert_eq!(plan, c.spmd_plan);
        substitute(&mut c, "roundtrip", &text).unwrap();
        assert_eq!(c.spmd_plan, plan);
    }

    #[test]
    fn rank_mismatch_is_a_validation_error() {
        let mut c = compile(SRC, &CompileOptions::with_partition(&[2, 2])).unwrap();
        let other = compile(SRC, &CompileOptions::with_partition(&[2, 1])).unwrap();
        let err = substitute(&mut c, "mismatch", &plan_to_json(&other.spmd_plan)).unwrap_err();
        assert!(matches!(err, Error::Validation(_)));
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("targets 2 ranks but 4"), "{err}");
    }

    #[test]
    fn plan_files_with_oversized_rank_counts_are_validation_errors() {
        let mut c = compile(SRC, &CompileOptions::with_partition(&[2, 2])).unwrap();
        let text = plan_to_json(&c.spmd_plan);
        let geometry = r#""extents":[16,16],"parts":[2,2]"#;
        assert!(text.contains(geometry), "{text}");
        // the first overflows u32; the second fits but would allocate
        // 2.5e9 subgrids before the rank counts were compared
        for n in [65536, 50000] {
            let huge = format!(r#""extents":[{n},{n}],"parts":[{n},{n}]"#);
            let err = substitute(&mut c, "huge", &text.replace(geometry, &huge)).unwrap_err();
            assert!(matches!(err, Error::Validation(_)), "{err}");
            assert_eq!(err.exit_code(), 4);
            assert!(err.to_string().contains("plan JSON:"), "{err}");
        }
        assert_eq!(c.spmd_plan.ranks(), 4, "the compiled plan is kept");
    }

    #[test]
    fn garbage_plan_text_is_a_validation_error_naming_its_origin() {
        let err = plan_from_json("{not json", "`p.json`").unwrap_err();
        assert!(err.to_string().contains("`p.json`"), "{err}");
    }
}
