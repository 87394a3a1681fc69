//! Program skeleton: statement lists and insertion gaps.
//!
//! A *synchronization point* in the paper is "a position (or a line
//! number) in a program" (§5). We model positions precisely as **gaps**
//! between statements: a statement list with `n` statements has `n + 1`
//! gaps (index 0 = before the first statement, `n` = after the last).
//! Every gap belongs to exactly one list, identified by a [`ListKey`]
//! (the unit body, a `do` body, or one arm of an `if`).
//!
//! Placing a synchronization at a gap means "execute it each time control
//! flows through this point". Because gaps are per-list, all the paper's
//! exclusion rules ("excluding areas inside inner loops", "the region
//! only needs to exclude the if-else block") fall out automatically: the
//! interior of a nested construct simply has no gaps in the outer list.

use autocfd_fortran::ast::{Stmt, StmtKind, Unit};
use autocfd_fortran::StmtId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies one statement list within a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ListKey {
    /// The executable body of the unit.
    UnitBody,
    /// The body of the `do`/`do while` statement with this id.
    DoBody(StmtId),
    /// The `then` arm of the `if` statement with this id.
    ThenArm(StmtId),
    /// The `i`-th `else if` arm of the `if` statement with this id.
    ElseIfArm(StmtId, u32),
    /// The `else` arm of the `if` statement with this id.
    ElseArm(StmtId),
}

/// A position for inserting a synchronization: gap `gap` of list `list`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GapPos {
    /// Which statement list.
    pub list: ListKey,
    /// Gap index within the list (0 ..= len).
    pub gap: usize,
}

/// One statement list with its context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListInfo {
    /// This list's key.
    pub key: ListKey,
    /// Statement ids in order.
    pub stmts: Vec<StmtId>,
    /// The statement that owns this list (`None` for the unit body).
    pub owner: Option<StmtId>,
}

/// The skeleton of one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Skeleton {
    /// All lists, keyed.
    pub lists: BTreeMap<ListKey, ListInfo>,
    /// For each statement: the list containing it and its index there.
    pub stmt_pos: BTreeMap<StmtId, (ListKey, usize)>,
    /// For each statement: its kind tag (cheap queries without the AST).
    pub tags: BTreeMap<StmtId, StmtTag>,
}

/// A cheap classification of statements for region scanning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtTag {
    /// `do` / `do while` with the loop's id in the IR loop table.
    Do,
    /// Block `if`.
    If,
    /// `goto` (or a statement containing one in its subtree).
    HasGoto,
    /// `call name`.
    Call(String),
    /// `return` / `stop`.
    Exit,
    /// Anything else.
    Plain,
}

impl Skeleton {
    /// Build the skeleton of `unit`.
    pub fn build(unit: &Unit) -> Self {
        let mut sk = Skeleton {
            lists: BTreeMap::new(),
            stmt_pos: BTreeMap::new(),
            tags: BTreeMap::new(),
        };
        sk.visit_list(ListKey::UnitBody, None, &unit.body);
        sk
    }

    fn visit_list(&mut self, key: ListKey, owner: Option<StmtId>, stmts: &[Stmt]) {
        let info = ListInfo {
            key,
            stmts: stmts.iter().map(|s| s.id).collect(),
            owner,
        };
        self.lists.insert(key, info);
        for (i, s) in stmts.iter().enumerate() {
            self.stmt_pos.insert(s.id, (key, i));
            self.tags.insert(s.id, tag_of(s));
            match &s.kind {
                StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
                    self.visit_list(ListKey::DoBody(s.id), Some(s.id), body);
                }
                StmtKind::If {
                    then,
                    else_ifs,
                    els,
                    ..
                } => {
                    self.visit_list(ListKey::ThenArm(s.id), Some(s.id), then);
                    for (k, (_, body)) in else_ifs.iter().enumerate() {
                        self.visit_list(ListKey::ElseIfArm(s.id, k as u32), Some(s.id), body);
                    }
                    if let Some(body) = els {
                        self.visit_list(ListKey::ElseArm(s.id), Some(s.id), body);
                    }
                }
                StmtKind::LogicalIf { stmt, .. } => {
                    // the guarded statement lives in a one-element
                    // pseudo-arm; we only need its tag for goto detection
                    self.tags.insert(stmt.id, tag_of(stmt));
                }
                _ => {}
            }
        }
    }

    /// The list containing statement `id`.
    pub fn list_of(&self, id: StmtId) -> (ListKey, usize) {
        self.stmt_pos[&id]
    }

    /// The statement owning list `key` (`None` for the unit body).
    #[cfg(test)]
    fn owner_of(&self, key: ListKey) -> Option<StmtId> {
        self.lists[&key].owner
    }

    /// The gap just after statement `id`.
    pub fn gap_after(&self, id: StmtId) -> GapPos {
        let (list, idx) = self.list_of(id);
        GapPos { list, gap: idx + 1 }
    }

    /// The gap just before statement `id`.
    #[cfg(test)]
    fn gap_before(&self, id: StmtId) -> GapPos {
        let (list, idx) = self.list_of(id);
        GapPos { list, gap: idx }
    }

    /// Number of gaps in a list (= statements + 1).
    #[cfg(test)]
    fn gap_count(&self, key: ListKey) -> usize {
        self.lists[&key].stmts.len() + 1
    }

    /// All arm keys of an `if` statement.
    #[cfg(test)]
    fn if_arms(&self, id: StmtId) -> Vec<ListKey> {
        let mut arms = Vec::new();
        if self.lists.contains_key(&ListKey::ThenArm(id)) {
            arms.push(ListKey::ThenArm(id));
        }
        let mut k = 0u32;
        while self.lists.contains_key(&ListKey::ElseIfArm(id, k)) {
            arms.push(ListKey::ElseIfArm(id, k));
            k += 1;
        }
        if self.lists.contains_key(&ListKey::ElseArm(id)) {
            arms.push(ListKey::ElseArm(id));
        }
        arms
    }
}

fn tag_of(s: &Stmt) -> StmtTag {
    match &s.kind {
        StmtKind::Do { .. } | StmtKind::DoWhile { .. } => StmtTag::Do,
        StmtKind::If { .. } => {
            if contains_goto(s) {
                StmtTag::HasGoto
            } else {
                StmtTag::If
            }
        }
        StmtKind::LogicalIf { .. } => {
            if contains_goto(s) {
                StmtTag::HasGoto
            } else {
                StmtTag::Plain
            }
        }
        StmtKind::Goto { .. } => StmtTag::HasGoto,
        StmtKind::Call { name, .. } => StmtTag::Call(name.clone()),
        StmtKind::Return | StmtKind::Stop => StmtTag::Exit,
        _ => StmtTag::Plain,
    }
}

/// True if the statement's subtree contains a `goto` (§5.2 rule 1 treats
/// any construct hiding a goto as a region terminator).
pub fn contains_goto(s: &Stmt) -> bool {
    let mut found = false;
    s.walk(&mut |st| {
        if matches!(st.kind, StmtKind::Goto { .. }) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;

    fn skeleton(src: &str) -> (Skeleton, autocfd_fortran::SourceFile) {
        let f = parse(src).unwrap();
        (Skeleton::build(&f.units[0]), f)
    }

    const SRC: &str = "
      program p
      x = 1
      do i = 1, 10
        y = i
        if (y .gt. 5.0) then
          z = 1
        else
          z = 2
          goto 10
        end if
      end do
10    continue
      call foo(x)
      end
";

    #[test]
    fn lists_enumerated() {
        let (sk, _) = skeleton(SRC);
        // unit body, do body, then arm, else arm
        assert_eq!(sk.lists.len(), 4);
        assert_eq!(sk.lists[&ListKey::UnitBody].stmts.len(), 4);
    }

    #[test]
    fn gaps_bracket_statements() {
        let (sk, f) = skeleton(SRC);
        let first = f.units[0].body[0].id;
        assert_eq!(
            sk.gap_before(first),
            GapPos {
                list: ListKey::UnitBody,
                gap: 0
            }
        );
        assert_eq!(
            sk.gap_after(first),
            GapPos {
                list: ListKey::UnitBody,
                gap: 1
            }
        );
        assert_eq!(sk.gap_count(ListKey::UnitBody), 5);
    }

    #[test]
    fn tags_detect_kinds() {
        let (sk, f) = skeleton(SRC);
        let body = &f.units[0].body;
        assert_eq!(sk.tags[&body[0].id], StmtTag::Plain);
        assert_eq!(sk.tags[&body[1].id], StmtTag::Do);
        assert_eq!(sk.tags[&body[3].id], StmtTag::Call("foo".into()));
    }

    #[test]
    fn if_with_goto_inside_is_hasgoto() {
        let (sk, f) = skeleton(SRC);
        let do_stmt = &f.units[0].body[1];
        let if_id = match &do_stmt.kind {
            autocfd_fortran::StmtKind::Do { body, .. } => body[1].id,
            _ => panic!(),
        };
        assert_eq!(sk.tags[&if_id], StmtTag::HasGoto);
    }

    #[test]
    fn if_arms_listed() {
        let (sk, f) = skeleton(SRC);
        let do_stmt = &f.units[0].body[1];
        let if_id = match &do_stmt.kind {
            autocfd_fortran::StmtKind::Do { body, .. } => body[1].id,
            _ => panic!(),
        };
        let arms = sk.if_arms(if_id);
        assert_eq!(arms, vec![ListKey::ThenArm(if_id), ListKey::ElseArm(if_id)]);
    }

    #[test]
    fn owner_chain() {
        let (sk, f) = skeleton(SRC);
        let do_id = f.units[0].body[1].id;
        assert_eq!(sk.owner_of(ListKey::DoBody(do_id)), Some(do_id));
        assert_eq!(sk.owner_of(ListKey::UnitBody), None);
    }

    #[test]
    fn pure_if_is_if_tag() {
        let (sk, f) = skeleton(
            "
      program p
      if (x .gt. 0.0) then
        y = 1
      end if
      end
",
        );
        let id = f.units[0].body[0].id;
        assert_eq!(sk.tags[&id], StmtTag::If);
    }
}
