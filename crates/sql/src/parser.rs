//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};
use vdm_plan::DeclaredCardinality;
use vdm_types::{Result, VdmError};

/// Parses a string of `;`-separated statements.
pub fn parse(sql: &str) -> Result<Vec<Statement>> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, anon_params: 0, max_param: None };
    let mut out = Vec::new();
    loop {
        while p.eat_sym(";") {}
        if p.at_eof() {
            break;
        }
        p.anon_params = 0;
        out.push(p.statement()?);
    }
    if out.is_empty() {
        return Err(VdmError::Parse("empty statement".into()));
    }
    Ok(out)
}

/// Parses exactly one statement.
pub fn parse_one(sql: &str) -> Result<Statement> {
    Ok(parse_one_with_params(sql)?.0)
}

/// Parses exactly one statement, also returning the number of placeholder
/// parameters it references (`max index + 1`, so `$3` alone means 3).
pub fn parse_one_with_params(sql: &str) -> Result<(Statement, usize)> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, anon_params: 0, max_param: None };
    while p.eat_sym(";") {}
    let stmt = p.statement()?;
    while p.eat_sym(";") {}
    if !p.at_eof() {
        return p.err("end of statement");
    }
    Ok((stmt, p.max_param.map_or(0, |m| m + 1)))
}

/// Maximum expression/FROM nesting depth — recursion in the parser is
/// bounded so hostile inputs error instead of overflowing the stack.
const MAX_RECURSION: u32 = 96;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
    /// Anonymous `?` placeholders seen so far (they number positionally).
    anon_params: usize,
    /// Highest placeholder index referenced (0-based).
    max_param: Option<usize>,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err<T>(&self, what: &str) -> Result<T> {
        Err(VdmError::Parse(format!(
            "expected {what}, found {} at offset {}",
            self.peek().describe(),
            self.tokens[self.pos].offset
        )))
    }

    /// Case-insensitive keyword check.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Keyword check one token ahead.
    fn at_kw_next(&self, kw: &str) -> bool {
        matches!(self.peek_at(1), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(&format!("keyword {kw}"))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), TokenKind::Sym(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            self.err(&format!("{sym:?}"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            TokenKind::QuotedIdent(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.err("identifier"),
        }
    }

    fn number_u64(&mut self) -> Result<u64> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                n.parse::<u64>().map_err(|_| VdmError::Parse(format!("expected integer, got {n}")))
            }
            _ => self.err("integer"),
        }
    }

    // ------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("explain") {
            self.bump();
            if self.at_kw("analyze") {
                self.bump();
                return Ok(Statement::ExplainAnalyze(Box::new(self.statement()?)));
            }
            if self.at_kw("trace") {
                self.bump();
                return Ok(Statement::ExplainTrace(Box::new(self.statement()?)));
            }
            return Ok(Statement::Explain(Box::new(self.statement()?)));
        }
        if self.at_kw("select") {
            return Ok(Statement::Select(self.select_with_unions()?));
        }
        if self.at_kw("create") {
            return self.create();
        }
        if self.at_kw("insert") {
            return self.insert();
        }
        if self.at_kw("drop") {
            return self.drop_statement();
        }
        self.err("statement (SELECT, CREATE, DROP, INSERT, EXPLAIN)")
    }

    fn drop_statement(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        let is_table = if self.eat_kw("table") {
            true
        } else if self.eat_kw("view") {
            false
        } else {
            return self.err("TABLE or VIEW");
        };
        let if_exists = if self.at_kw("if") {
            self.bump();
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(if is_table {
            Statement::DropTable { name, if_exists }
        } else {
            Statement::DropView { name, if_exists }
        })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        let or_replace = if self.at_kw("or") {
            self.bump();
            self.expect_kw("replace")?;
            true
        } else {
            false
        };
        if self.eat_kw("table") {
            if or_replace {
                return Err(VdmError::Parse("CREATE OR REPLACE TABLE is not supported".into()));
            }
            return self.create_table();
        }
        if self.eat_kw("view") {
            return self.create_view(or_replace);
        }
        self.err("TABLE or VIEW")
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        let mut uniques = Vec::new();
        let mut foreign_keys = Vec::new();
        loop {
            if self.at_kw("primary") {
                self.bump();
                self.expect_kw("key")?;
                primary_key = self.paren_name_list()?;
            } else if self.at_kw("unique") {
                self.bump();
                uniques.push(self.paren_name_list()?);
            } else if self.at_kw("foreign") {
                self.bump();
                self.expect_kw("key")?;
                let cols = self.paren_name_list()?;
                self.expect_kw("references")?;
                let ref_table = self.ident()?;
                let ref_cols = self.paren_name_list()?;
                foreign_keys.push((cols, ref_table, ref_cols));
            } else {
                let col_name = self.ident()?;
                let type_name = self.ident()?;
                let mut scale = None;
                if self.eat_sym("(") {
                    let precision = self.number_u64()?;
                    let _ = precision;
                    if self.eat_sym(",") {
                        scale = Some(self.number_u64()? as u8);
                    }
                    self.expect_sym(")")?;
                }
                let mut not_null = false;
                if self.at_kw("not") {
                    self.bump();
                    self.expect_kw("null")?;
                    not_null = true;
                } else if self.at_kw("primary") {
                    // Inline `PRIMARY KEY`.
                    self.bump();
                    self.expect_kw("key")?;
                    primary_key = vec![col_name.clone()];
                    not_null = true;
                }
                columns.push(ColumnAst { name: col_name, type_name, scale, not_null });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            primary_key,
            uniques,
            foreign_keys,
        }))
    }

    fn create_view(&mut self, or_replace: bool) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("as")?;
        self.expect_keyword_lookahead("select")?;
        let query = self.select_with_unions()?;
        let mut macros = Vec::new();
        if self.at_kw("with") {
            self.bump();
            self.expect_kw("expression")?;
            self.expect_kw("macros")?;
            self.expect_sym("(")?;
            loop {
                let body = self.expr()?;
                self.expect_kw("as")?;
                let mname = self.ident()?;
                macros.push(MacroAst { name: mname, body });
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
        }
        Ok(Statement::CreateView { name, or_replace, query, macros })
    }

    fn expect_keyword_lookahead(&self, kw: &str) -> Result<()> {
        if self.at_kw(kw) {
            Ok(())
        } else {
            Err(VdmError::Parse(format!("expected {kw}, found {}", self.peek().describe())))
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if matches!(self.peek(), TokenKind::Sym("(")) {
            Some(self.paren_name_list()?)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn paren_name_list(&mut self) -> Result<Vec<String>> {
        self.expect_sym("(")?;
        let mut out = Vec::new();
        loop {
            out.push(self.ident()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(out)
    }

    // ----------------------------------------------------------- SELECT

    fn select_with_unions(&mut self) -> Result<SelectStmt> {
        let mut first = self.select_core()?;
        while self.at_kw("union") {
            self.bump();
            self.expect_kw("all")?;
            self.expect_keyword_lookahead("select")?;
            first.union_all.push(self.select_core()?);
        }
        // ORDER BY / LIMIT / OFFSET apply to the whole union.
        if self.at_kw("order") {
            self.bump();
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                first.order_by.push((e, asc));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            first.limit = Some(self.number_u64()?);
        }
        if self.eat_kw("offset") {
            first.offset = Some(self.number_u64()?);
        }
        Ok(first)
    }

    fn select_core(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Wildcard);
            } else if matches!(self.peek(), TokenKind::Ident(_) | TokenKind::QuotedIdent(_))
                && matches!(self.peek_at(1), TokenKind::Sym("."))
                && matches!(self.peek_at(2), TokenKind::Sym("*"))
            {
                let q = self.ident()?;
                self.bump(); // .
                self.bump(); // *
                items.push(SelectItem::QualifiedWildcard(q));
            } else {
                let expr = self.expr()?;
                // Explicit `AS alias` or a bare trailing identifier.
                let has_alias = self.eat_kw("as")
                    || matches!(self.peek(), TokenKind::Ident(s) if !is_clause_keyword(s));
                let alias = if has_alias { Some(self.ident()?) } else { None };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        let from = if self.eat_kw("from") { Some(self.table_ref()?) } else { None };
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.at_kw("group") {
            self.bump();
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            union_all: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        })
    }

    // ------------------------------------------------------- FROM / JOIN

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            // JOIN | INNER JOIN | LEFT [OUTER] [<cardinality>|CASE] JOIN.
            let kind = if self.at_kw("join") {
                AstJoinKind::Inner
            } else if self.at_kw("inner") {
                self.bump();
                AstJoinKind::Inner
            } else if self.at_kw("left") {
                self.bump();
                self.eat_kw("outer");
                AstJoinKind::LeftOuter
            } else {
                break;
            };
            // Optional cardinality / CASE annotations before JOIN.
            let mut cardinality = None;
            let mut case_join = false;
            if self.at_kw("many") {
                self.bump();
                self.expect_kw("to")?;
                if self.eat_kw("exact") {
                    self.expect_kw("one")?;
                    cardinality = Some(DeclaredCardinality::ManyToExactOne);
                } else {
                    self.expect_kw("one")?;
                    cardinality = Some(DeclaredCardinality::ManyToOne);
                }
            } else if self.at_kw("case") {
                self.bump();
                case_join = true;
            }
            self.expect_kw("join")?;
            let right = self.table_factor()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                cardinality,
                case_join,
                on: Some(on),
            };
        }
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat_sym("(") {
            return self.nested(|p| {
                if p.at_kw("select") {
                    let query = p.select_with_unions()?;
                    p.expect_sym(")")?;
                    p.eat_kw("as");
                    let alias = p.ident()?;
                    return Ok(TableRef::Subquery { query: Box::new(query), alias });
                }
                // Parenthesized join tree.
                let inner = p.table_ref()?;
                p.expect_sym(")")?;
                Ok(inner)
            });
        }
        let name = self.ident()?;
        let has_alias = self.eat_kw("as")
            || matches!(self.peek(), TokenKind::Ident(s) if !is_clause_keyword(s));
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(TableRef::Named { name, alias })
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<AstExpr> {
        self.nested(Parser::or_expr)
    }

    /// Runs `f` one nesting level deeper, erroring past [`MAX_RECURSION`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        self.depth += 1;
        if self.depth > MAX_RECURSION {
            self.depth -= 1;
            return Err(VdmError::Parse("expression or FROM nesting too deep".into()));
        }
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left =
                AstExpr::Binary { op: AstBinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left =
                AstExpr::Binary { op: AstBinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw("not") {
            return Ok(AstExpr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL.
        if self.at_kw("is") {
            self.bump();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN (...) / [NOT] BETWEEN lo AND hi / [NOT] LIKE 'pat'.
        let negated = if self.at_kw("not")
            && (self.at_kw_next("in") || self.at_kw_next("between") || self.at_kw_next("like"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            let call =
                AstExpr::Func { name: "like".into(), args: vec![left, pattern], distinct: false };
            return Ok(if negated { AstExpr::Not(Box::new(call)) } else { call });
        }
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(AstExpr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return self.err("IN or BETWEEN after NOT");
        }
        let op = match self.peek() {
            TokenKind::Sym("=") => Some(AstBinOp::Eq),
            TokenKind::Sym("<>") | TokenKind::Sym("!=") => Some(AstBinOp::NotEq),
            TokenKind::Sym("<") => Some(AstBinOp::Lt),
            TokenKind::Sym("<=") => Some(AstBinOp::LtEq),
            TokenKind::Sym(">") => Some(AstBinOp::Gt),
            TokenKind::Sym(">=") => Some(AstBinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.additive()?;
            return Ok(AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Sym("+") => AstBinOp::Add,
                TokenKind::Sym("-") => AstBinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Sym("*") => AstBinOp::Mul,
                TokenKind::Sym("/") => AstBinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.eat_sym("-") {
            // Negation as `0 - x`.
            let inner = self.unary()?;
            return Ok(AstExpr::Binary {
                op: AstBinOp::Sub,
                left: Box::new(AstExpr::Number("0".into())),
                right: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(AstExpr::Number(n))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(AstExpr::Str(s))
            }
            TokenKind::Sym("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            TokenKind::Sym("*") => {
                self.bump();
                Ok(AstExpr::Star)
            }
            TokenKind::Sym("?") => {
                self.bump();
                let idx = self.anon_params;
                self.anon_params += 1;
                self.max_param = Some(self.max_param.map_or(idx, |m| m.max(idx)));
                Ok(AstExpr::Param(idx))
            }
            TokenKind::Param(idx) => {
                self.bump();
                self.max_param = Some(self.max_param.map_or(idx, |m| m.max(idx)));
                Ok(AstExpr::Param(idx))
            }
            TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => self.ident_or_call(),
            _ => self.err("expression"),
        }
    }

    fn ident_or_call(&mut self) -> Result<AstExpr> {
        // Keywords acting as expression heads.
        if self.at_kw("case") {
            return self.case_expr();
        }
        if self.at_kw("cast") {
            self.bump();
            self.expect_sym("(")?;
            let e = self.expr()?;
            self.expect_kw("as")?;
            let type_name = self.ident()?;
            let mut scale = None;
            if self.eat_sym("(") {
                let _precision = self.number_u64()?;
                if self.eat_sym(",") {
                    scale = Some(self.number_u64()? as u8);
                }
                self.expect_sym(")")?;
            }
            self.expect_sym(")")?;
            return Ok(AstExpr::Cast { expr: Box::new(e), type_name, scale });
        }
        if self.at_kw("null") {
            self.bump();
            return Ok(AstExpr::Null);
        }
        if self.at_kw("true") {
            self.bump();
            return Ok(AstExpr::Bool(true));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(AstExpr::Bool(false));
        }
        let name = self.ident()?;
        // Function call?
        if matches!(self.peek(), TokenKind::Sym("(")) {
            self.bump();
            if name.eq_ignore_ascii_case("allow_precision_loss") {
                let inner = self.expr()?;
                self.expect_sym(")")?;
                return Ok(AstExpr::PrecisionLoss(Box::new(inner)));
            }
            if name.eq_ignore_ascii_case("expression_macro") {
                let mname = self.ident()?;
                self.expect_sym(")")?;
                return Ok(AstExpr::MacroRef(mname));
            }
            let distinct = self.eat_kw("distinct");
            let mut args = Vec::new();
            if !matches!(self.peek(), TokenKind::Sym(")")) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            }
            self.expect_sym(")")?;
            return Ok(AstExpr::Func { name, args, distinct });
        }
        // Qualified identifier.
        let mut parts = vec![name];
        while self.eat_sym(".") {
            parts.push(self.ident()?);
        }
        Ok(AstExpr::Ident(parts))
    }

    fn case_expr(&mut self) -> Result<AstExpr> {
        self.expect_kw("case")?;
        let mut branches = Vec::new();
        // Optional operand form: CASE x WHEN v THEN r ...
        let operand = if !self.at_kw("when") { Some(self.expr()?) } else { None };
        while self.eat_kw("when") {
            let mut cond = self.expr()?;
            if let Some(op) = &operand {
                cond = AstExpr::Binary {
                    op: AstBinOp::Eq,
                    left: Box::new(op.clone()),
                    right: Box::new(cond),
                };
            }
            self.expect_kw("then")?;
            let val = self.expr()?;
            branches.push((cond, val));
        }
        let else_expr = if self.eat_kw("else") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("end")?;
        if branches.is_empty() {
            return Err(VdmError::Parse("CASE requires at least one WHEN".into()));
        }
        Ok(AstExpr::Case { branches, else_expr })
    }
}

/// Keywords that terminate an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "from", "where", "group", "having", "order", "limit", "offset", "union", "join", "inner",
        "left", "right", "full", "cross", "on", "as", "and", "or", "not", "when", "then", "else",
        "end", "asc", "desc", "is", "null", "with", "case", "many", "in", "between", "like",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_one(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_select() {
        let s = sel("select a, b as bee from t where a > 1");
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
        assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "bee"));
    }

    #[test]
    fn from_nesting_is_bounded() {
        let parens = |n: usize| format!("select * from {}t{}", "(".repeat(n), ")".repeat(n));
        let subqueries =
            |n: usize| format!("select * from {}t{}", "(select * from ".repeat(n), ") s".repeat(n));
        for nested in [parens, subqueries] {
            assert!(parse(&nested(40)).is_ok());
            let err = parse(&nested(5_000)).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        }
    }

    #[test]
    fn parses_joins_with_cardinality_and_case_join() {
        let s = sel("select * from a left outer many to one join b on a.k = b.k \
             left outer case join c on a.k = c.k");
        let TableRef::Join { left, cardinality, case_join, .. } = s.from.unwrap() else {
            panic!("expected join");
        };
        assert!(case_join);
        assert_eq!(cardinality, None);
        let TableRef::Join { cardinality, case_join, .. } = *left else {
            panic!("expected nested join");
        };
        assert_eq!(cardinality, Some(DeclaredCardinality::ManyToOne));
        assert!(!case_join);
    }

    #[test]
    fn parses_many_to_exact_one() {
        let s = sel("select * from a inner many to exact one join b on a.k = b.k");
        let TableRef::Join { kind, cardinality, .. } = s.from.unwrap() else {
            panic!("expected join");
        };
        assert_eq!(kind, AstJoinKind::Inner);
        assert_eq!(cardinality, Some(DeclaredCardinality::ManyToExactOne));
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let s = sel("select c, count(*) from t group by c having count(*) > 2 \
             order by c desc limit 10 offset 5");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].1, "desc");
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn parses_union_all_chain() {
        let s = sel("select a from t union all select a from u union all select a from v");
        assert_eq!(s.union_all.len(), 2);
    }

    #[test]
    fn parses_subquery_and_qualified_wildcard() {
        let s = sel("select t.*, x.n from (select a as n from u) x join t on x.n = t.k");
        assert!(matches!(&s.items[0], SelectItem::QualifiedWildcard(q) if q == "t"));
        let TableRef::Join { left, .. } = s.from.unwrap() else { panic!() };
        assert!(matches!(*left, TableRef::Subquery { .. }));
        // Comma joins are unsupported — explicit JOIN syntax only.
        assert!(parse("select 1 from a, b").is_err());
    }

    #[test]
    fn parses_precision_loss_and_macro() {
        let s = sel("select allow_precision_loss(sum(round(p * 1.11, 2))) from t");
        assert!(matches!(&s.items[0], SelectItem::Expr { expr: AstExpr::PrecisionLoss(_), .. }));
        let s = sel("select o, expression_macro(margin) from v group by o");
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr { expr: AstExpr::MacroRef(m), .. } if m == "margin"
        ));
    }

    #[test]
    fn parses_create_table_with_constraints() {
        let stmt = parse_one(
            "create table t (a bigint not null, b decimal(10,2), c varchar(20), \
             primary key (a), unique (b, c), \
             foreign key (b) references u (x))",
        )
        .unwrap();
        let Statement::CreateTable(t) = stmt else { panic!() };
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.primary_key, vec!["a"]);
        assert_eq!(t.uniques.len(), 1);
        assert_eq!(t.foreign_keys.len(), 1);
        assert_eq!(t.columns[1].scale, Some(2));
    }

    #[test]
    fn parses_create_view_with_macros() {
        let stmt = parse_one(
            "create view v as select * from t with expression macros \
             (1 - sum(c) / sum(p) as margin)",
        )
        .unwrap();
        let Statement::CreateView { macros, .. } = stmt else { panic!() };
        assert_eq!(macros.len(), 1);
        assert_eq!(macros[0].name, "margin");
    }

    #[test]
    fn parses_insert() {
        let stmt = parse_one("insert into t (a, b) values (1, 'x'), (2, null)").unwrap();
        let Statement::Insert { rows, columns, .. } = stmt else { panic!() };
        assert_eq!(rows.len(), 2);
        assert_eq!(columns.unwrap().len(), 2);
    }

    #[test]
    fn parses_case_expressions() {
        let s = sel("select case when a = 1 then 'one' else 'many' end from t");
        assert!(matches!(&s.items[0], SelectItem::Expr { expr: AstExpr::Case { .. }, .. }));
        let s = sel("select case a when 1 then 'one' when 2 then 'two' end x from t");
        let SelectItem::Expr { expr: AstExpr::Case { branches, .. }, .. } = &s.items[0] else {
            panic!();
        };
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported_with_position() {
        let err = parse("select from where").unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
        assert!(parse("").is_err());
        assert!(parse("frobnicate t").is_err());
    }

    #[test]
    fn parses_explain() {
        let stmt = parse_one("explain select 1 from t").unwrap();
        assert!(matches!(stmt, Statement::Explain(_)));
    }

    #[test]
    fn parses_explain_analyze() {
        let stmt = parse_one("explain analyze select 1 from t").unwrap();
        let Statement::ExplainAnalyze(inner) = stmt else {
            panic!("expected ExplainAnalyze");
        };
        assert!(matches!(*inner, Statement::Select(_)));
        // `analyze` stays usable as an ordinary identifier elsewhere.
        assert!(parse_one("select analyze from t").is_ok());
    }

    #[test]
    fn parses_placeholders_and_counts_them() {
        let (stmt, n) = parse_one_with_params("select * from t where a = ? and b > ?").unwrap();
        assert_eq!(n, 2);
        let Statement::Select(s) = stmt else { panic!() };
        let Some(AstExpr::Binary { left, .. }) = s.where_clause else { panic!() };
        let AstExpr::Binary { right, .. } = *left else { panic!() };
        assert_eq!(*right, AstExpr::Param(0));
        // Explicit numbering can repeat and skip order.
        let (_, n) = parse_one_with_params("select * from t where a = $2 or b = $2").unwrap();
        assert_eq!(n, 2);
        let (_, n) = parse_one_with_params("select 1 from t").unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn parses_drop_statements() {
        assert_eq!(
            parse_one("drop table t").unwrap(),
            Statement::DropTable { name: "t".into(), if_exists: false }
        );
        assert_eq!(
            parse_one("drop view if exists v").unwrap(),
            Statement::DropView { name: "v".into(), if_exists: true }
        );
        assert!(parse_one("drop index i").is_err());
    }

    #[test]
    fn parses_multiple_statements() {
        let stmts = parse("select 1 from t; select 2 from u;").unwrap();
        assert_eq!(stmts.len(), 2);
    }
}
