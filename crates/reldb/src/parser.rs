//! A small SQL dialect: tokenizer, AST and recursive-descent parser.
//!
//! Covers exactly what the paper's SQL formulations need (Sect. 5.3,
//! Sect. 6.3, Appendix D):
//!
//! * `SELECT expr [AS name], …` with `SUM`/`MIN`/`MAX` aggregates,
//! * `FROM table [alias], …` including parenthesized subqueries
//!   (`(SELECT …) AS x` — Fig. 9b),
//! * `WHERE` conjunctions of comparisons and `[NOT] IN (SELECT …)`
//!   (Fig. 9c's anti-join),
//! * `GROUP BY col, …`,
//! * `CREATE TABLE t AS SELECT …` (Fig. 9a),
//! * `INSERT INTO t SELECT … / (SELECT …)`,
//! * `DELETE FROM t WHERE col IN (SELECT …)` (Fig. 9d),
//! * arithmetic `+ − * /` and the scalar `ABS(expr)` over columns and
//!   numeric literals; quoted numeric literals (`'0'`, `'1'`) are
//!   accepted as integers, as the paper writes them.

use std::fmt;

/// Tokens of the dialect.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched case-
    /// insensitively; identifiers keep their original spelling).
    Ident(String),
    /// Numeric literal (integer or float; also produced by quoted numbers).
    Number(f64),
    /// `.` `,` `(` `)` `*` `+` `-` `/` `=` `<` `>` `<=` `>=` `<>` `;`
    Symbol(String),
}

/// Parse errors: a human-readable message plus, when known, the byte
/// offset into the original SQL string where the problem sits — so a
/// failure in a generated multi-line script reads
/// `unexpected character '%' at byte 17` instead of leaving the caller
/// to hunt through the whole statement.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the offending character/token in the input, when
    /// the error can be pinned to one.
    pub offset: Option<usize>,
}

impl ParseError {
    fn at(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// Shifts the recorded offset by `base` bytes — used to translate a
    /// per-statement offset into a whole-script offset.
    fn rebase(mut self, base: usize) -> Self {
        self.offset = self.offset.map(|o| o + base);
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.message)?;
        if let Some(offset) = self.offset {
            write!(f, " at byte {offset}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// Tokenizes a SQL string, tagging every token with the byte offset of
/// its first character in `sql`.
pub fn tokenize_spanned(sql: &str) -> Result<Vec<(Token, usize)>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<(usize, char)> = sql.char_indices().collect();
    let mut i = 0;
    while i < chars.len() {
        let (at, c) = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].1.is_ascii_alphanumeric() || chars[i].1 == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().map(|&(_, c)| c).collect();
            tokens.push((Token::Ident(text), at));
        } else if c.is_ascii_digit()
            || (c == '.' && i + 1 < chars.len() && chars[i + 1].1.is_ascii_digit())
        {
            let start = i;
            while i < chars.len()
                && (chars[i].1.is_ascii_digit()
                    || chars[i].1 == '.'
                    || chars[i].1 == 'e'
                    || chars[i].1 == 'E'
                    || ((chars[i].1 == '+' || chars[i].1 == '-')
                        && matches!(chars[i - 1].1, 'e' | 'E')))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().map(|&(_, c)| c).collect();
            let value: f64 = text
                .parse()
                .map_err(|_| ParseError::at(format!("bad number literal '{text}'"), at))?;
            tokens.push((Token::Number(value), at));
        } else if c == '\'' {
            // Quoted literal — the paper quotes integers ('0', '1').
            let start = i + 1;
            i += 1;
            while i < chars.len() && chars[i].1 != '\'' {
                i += 1;
            }
            if i >= chars.len() {
                return Err(ParseError::at("unterminated string literal", at));
            }
            let text: String = chars[start..i].iter().map(|&(_, c)| c).collect();
            i += 1; // closing quote
            let value: f64 = text.parse().map_err(|_| {
                ParseError::at(
                    format!("only numeric quoted literals supported: '{text}'"),
                    at,
                )
            })?;
            tokens.push((Token::Number(value), at));
        } else if c == '<'
            && i + 1 < chars.len()
            && (chars[i + 1].1 == '=' || chars[i + 1].1 == '>')
        {
            tokens.push((Token::Symbol(format!("<{}", chars[i + 1].1)), at));
            i += 2;
        } else if c == '>' && i + 1 < chars.len() && chars[i + 1].1 == '=' {
            tokens.push((Token::Symbol(">=".into()), at));
            i += 2;
        } else if "().,*+-/=<>;".contains(c) {
            tokens.push((Token::Symbol(c.to_string()), at));
            i += 1;
        } else {
            return Err(ParseError::at(format!("unexpected character '{c}'"), at));
        }
    }
    Ok(tokens)
}

/// Tokenizes a SQL string (offsets discarded — see [`tokenize_spanned`]).
pub fn tokenize(sql: &str) -> Result<Vec<Token>, ParseError> {
    Ok(tokenize_spanned(sql)?.into_iter().map(|(t, _)| t).collect())
}

/// A (possibly qualified) column reference.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnRef {
    /// Table alias, if written as `alias.column`.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
    /// Byte offset of the reference in the SQL text, when parsed from one
    /// — lets execution-time `UnknownColumn` errors point at the exact
    /// spot, like parse errors do.
    pub offset: Option<usize>,
}

/// Scalar expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Numeric literal.
    Literal(f64),
    /// Binary arithmetic: `+ - * /`.
    Binary(Box<Expr>, char, Box<Expr>),
    /// `ABS(expr)`.
    Abs(Box<Expr>),
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateFun {
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One item of a SELECT list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Scalar expression with optional alias.
    Expr {
        /// The expression to evaluate per row.
        expr: Expr,
        /// Output column name (`AS name`).
        alias: Option<String>,
    },
    /// Aggregate with optional alias.
    Aggregate {
        /// Aggregate function.
        fun: AggregateFun,
        /// Argument expression.
        arg: Expr,
        /// Output column name (`AS name`).
        alias: Option<String>,
    },
}

/// A FROM-clause source.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Named {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `(SELECT …) [AS] alias`
    Subquery {
        /// The inner query.
        query: Box<Select>,
        /// Mandatory alias naming the derived table.
        alias: String,
    },
}

/// WHERE predicates (conjunction members).
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `expr op expr` with op ∈ {=, <, >, <=, >=, <>}.
    Compare(Expr, String, Expr),
    /// `expr [NOT] IN (SELECT …)`.
    InSubquery {
        /// Probe expression.
        expr: Expr,
        /// The subquery whose first column is the membership set.
        query: Box<Select>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
}

/// A SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM sources (comma-joined, like the paper's SQL).
    pub from: Vec<TableRef>,
    /// Conjunctive WHERE predicates.
    pub predicates: Vec<Predicate>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
}

/// Top-level statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `SELECT …`
    Select(Select),
    /// `EXPLAIN SELECT …` — plan the query, run it, and report the plan
    /// tree with estimated bounds next to actual cardinalities.
    Explain {
        /// The query to plan and report on.
        query: Select,
    },
    /// `CREATE TABLE name AS SELECT …`
    CreateTableAs {
        /// New table name.
        name: String,
        /// Defining query.
        query: Select,
    },
    /// `INSERT INTO name [(]SELECT …[)]`
    InsertSelect {
        /// Target table.
        table: String,
        /// Source query.
        query: Select,
    },
    /// `DELETE FROM name WHERE predicates`
    Delete {
        /// Target table.
        table: String,
        /// Conjunctive deletion condition.
        predicates: Vec<Predicate>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table to remove.
        name: String,
    },
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    write!(f, "{}", *v as i64)
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Binary(l, op, r) => {
                let paren = |f: &mut fmt::Formatter<'_>, e: &Expr| -> fmt::Result {
                    if matches!(e, Expr::Binary(..)) {
                        write!(f, "({e})")
                    } else {
                        write!(f, "{e}")
                    }
                };
                paren(f, l)?;
                write!(f, " {op} ")?;
                paren(f, r)
            }
            Expr::Abs(e) => write!(f, "abs({e})"),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare(l, op, r) => write!(f, "{l} {op} {r}"),
            Predicate::InSubquery {
                expr,
                query,
                negated,
            } => {
                let not = if *negated { "not " } else { "" };
                write!(f, "{expr} {not}in ({query})")
            }
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let alias_suffix = |f: &mut fmt::Formatter<'_>, a: &Option<String>| -> fmt::Result {
            match a {
                Some(a) => write!(f, " as {a}"),
                None => Ok(()),
            }
        };
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                alias_suffix(f, alias)
            }
            SelectItem::Aggregate { fun, arg, alias } => {
                let name = match fun {
                    AggregateFun::Sum => "sum",
                    AggregateFun::Min => "min",
                    AggregateFun::Max => "max",
                };
                write!(f, "{name}({arg})")?;
                alias_suffix(f, alias)
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => match alias {
                Some(a) => write!(f, "{name} {a}"),
                None => write!(f, "{name}"),
            },
            TableRef::Subquery { query, alias } => write!(f, "({query}) as {alias}"),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " from ")?;
        for (i, src) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{src}")?;
        }
        for (i, p) in self.predicates.iter().enumerate() {
            write!(f, " {} {p}", if i == 0 { "where" } else { "and" })?;
        }
        for (i, g) in self.group_by.iter().enumerate() {
            write!(f, "{} {g}", if i == 0 { " group by" } else { "," })?;
        }
        Ok(())
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    /// Byte length of the input — where errors at end-of-input point.
    end: usize,
}

/// Parses one SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    let mut p = Parser {
        tokens: tokenize_spanned(sql)?,
        pos: 0,
        end: sql.len(),
    };
    let stmt = p.statement()?;
    p.eat_symbol(";"); // optional
    if p.pos != p.tokens.len() {
        return Err(ParseError::at(
            format!("trailing tokens after statement: {:?}", p.peek()),
            p.offset(),
        ));
    }
    Ok(stmt)
}

/// Parses a `;`-separated script. Error offsets refer to the whole
/// script string, not the failing statement alone.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let mut statements = Vec::new();
    let mut base = 0;
    for piece in sql.split(';') {
        let trimmed = piece.trim();
        if !trimmed.is_empty() {
            let lead = piece.len() - piece.trim_start().len();
            statements.push(parse(trimmed).map_err(|e| e.rebase(base + lead))?);
        }
        base += piece.len() + 1; // + the ';' separator
    }
    Ok(statements)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    /// Byte offset of the current token (end of input when exhausted).
    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.end, |&(_, o)| o)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::at(
                format!("expected keyword {kw}, found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(ParseError::at(
                format!("expected '{sym}', found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let at = self.offset();
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::at(
                format!("expected identifier, found {other:?}"),
                at,
            )),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek_keyword("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_keyword("explain") {
            Ok(Statement::Explain {
                query: self.select()?,
            })
        } else if self.eat_keyword("create") {
            self.expect_keyword("table")?;
            let name = self.ident()?;
            self.expect_keyword("as")?;
            let parenthesized = self.eat_symbol("(");
            let query = self.select()?;
            if parenthesized {
                self.expect_symbol(")")?;
            }
            Ok(Statement::CreateTableAs { name, query })
        } else if self.eat_keyword("insert") {
            self.expect_keyword("into")?;
            let table = self.ident()?;
            let parenthesized = self.eat_symbol("(");
            let query = self.select()?;
            if parenthesized {
                self.expect_symbol(")")?;
            }
            Ok(Statement::InsertSelect { table, query })
        } else if self.eat_keyword("delete") {
            self.expect_keyword("from")?;
            let table = self.ident()?;
            let predicates = if self.eat_keyword("where") {
                self.predicates()?
            } else {
                Vec::new()
            };
            Ok(Statement::Delete { table, predicates })
        } else if self.eat_keyword("drop") {
            self.expect_keyword("table")?;
            let name = self.ident()?;
            Ok(Statement::DropTable { name })
        } else {
            Err(ParseError::at(
                format!("expected a statement, found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn select(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(",") {
            items.push(self.select_item()?);
        }
        self.expect_keyword("from")?;
        let mut from = vec![self.table_ref()?];
        // Comma joins and explicit `[INNER] JOIN … ON …` mix freely; the ON
        // conjunction desugars into ordinary WHERE predicates (the planner
        // treats both spellings identically).
        let mut join_predicates = Vec::new();
        loop {
            if self.eat_symbol(",") {
                from.push(self.table_ref()?);
            } else if self.peek_keyword("join") || self.peek_keyword("inner") {
                self.eat_keyword("inner");
                self.expect_keyword("join")?;
                from.push(self.table_ref()?);
                self.expect_keyword("on")?;
                join_predicates.extend(self.predicates()?);
            } else {
                break;
            }
        }
        let mut predicates = join_predicates;
        if self.eat_keyword("where") {
            predicates.extend(self.predicates()?);
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.column_ref()?);
            while self.eat_symbol(",") {
                group_by.push(self.column_ref()?);
            }
        }
        Ok(Select {
            items,
            from,
            predicates,
            group_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate?
        for (kw, fun) in [
            ("sum", AggregateFun::Sum),
            ("min", AggregateFun::Min),
            ("max", AggregateFun::Max),
        ] {
            if self.peek_keyword(kw)
                && matches!(self.tokens.get(self.pos + 1), Some((Token::Symbol(s), _)) if s == "(")
            {
                self.pos += 1;
                self.expect_symbol("(")?;
                let arg = self.expr()?;
                self.expect_symbol(")")?;
                let alias = self.optional_alias()?;
                return Ok(SelectItem::Aggregate { fun, arg, alias });
            }
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_keyword("as") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        if self.eat_symbol("(") {
            let query = Box::new(self.select()?);
            self.expect_symbol(")")?;
            self.eat_keyword("as");
            let alias = self.ident()?;
            Ok(TableRef::Subquery { query, alias })
        } else {
            let name = self.ident()?;
            // An alias is any identifier that is not a clause keyword.
            let alias = match self.peek() {
                Some(Token::Ident(s))
                    if !["where", "group", "on", "inner", "join", "order"]
                        .iter()
                        .any(|kw| s.eq_ignore_ascii_case(kw)) =>
                {
                    Some(self.ident()?)
                }
                _ => None,
            };
            Ok(TableRef::Named { name, alias })
        }
    }

    fn predicates(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut preds = vec![self.predicate()?];
        while self.eat_keyword("and") {
            preds.push(self.predicate()?);
        }
        Ok(preds)
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let lhs = self.expr()?;
        // [NOT] IN (SELECT …)
        if self.eat_keyword("not") {
            self.expect_keyword("in")?;
            self.expect_symbol("(")?;
            let query = Box::new(self.select()?);
            self.expect_symbol(")")?;
            return Ok(Predicate::InSubquery {
                expr: lhs,
                query,
                negated: true,
            });
        }
        if self.eat_keyword("in") {
            self.expect_symbol("(")?;
            let query = Box::new(self.select()?);
            self.expect_symbol(")")?;
            return Ok(Predicate::InSubquery {
                expr: lhs,
                query,
                negated: false,
            });
        }
        let at = self.offset();
        let op = match self.next() {
            Some(Token::Symbol(s)) if ["=", "<", ">", "<=", ">=", "<>"].contains(&s.as_str()) => s,
            other => {
                return Err(ParseError::at(
                    format!("expected comparison, found {other:?}"),
                    at,
                ))
            }
        };
        let rhs = self.expr()?;
        Ok(Predicate::Compare(lhs, op, rhs))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            if self.eat_symbol("+") {
                lhs = Expr::Binary(Box::new(lhs), '+', Box::new(self.term()?));
            } else if self.eat_symbol("-") {
                lhs = Expr::Binary(Box::new(lhs), '-', Box::new(self.term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat_symbol("*") {
                lhs = Expr::Binary(Box::new(lhs), '*', Box::new(self.factor()?));
            } else if self.eat_symbol("/") {
                lhs = Expr::Binary(Box::new(lhs), '/', Box::new(self.factor()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.eat_symbol("(") {
            let e = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        if self.eat_symbol("-") {
            let e = self.factor()?;
            return Ok(Expr::Binary(Box::new(Expr::Literal(0.0)), '-', Box::new(e)));
        }
        let at = self.offset();
        match self.next() {
            Some(Token::Number(v)) => Ok(Expr::Literal(v)),
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("abs") && self.eat_symbol("(") {
                    let e = self.expr()?;
                    self.expect_symbol(")")?;
                    Ok(Expr::Abs(Box::new(e)))
                } else if self.eat_symbol(".") {
                    let column = self.ident()?;
                    Ok(Expr::Column(ColumnRef {
                        table: Some(name),
                        column,
                        offset: Some(at),
                    }))
                } else {
                    Ok(Expr::Column(ColumnRef {
                        table: None,
                        column: name,
                        offset: Some(at),
                    }))
                }
            }
            other => Err(ParseError::at(
                format!("expected expression, found {other:?}"),
                at,
            )),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let at = self.offset();
        let first = self.ident()?;
        if self.eat_symbol(".") {
            let column = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
                offset: Some(at),
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
                offset: Some(at),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_basics() {
        let t = tokenize("select a.b, 1.5e2 from T where x <> '0';").unwrap();
        assert!(t.contains(&Token::Number(150.0)));
        assert!(t.contains(&Token::Symbol("<>".into())));
        assert!(t.contains(&Token::Number(0.0)));
    }

    #[test]
    fn tokenizer_rejects_garbage() {
        assert!(tokenize("select @").is_err());
        assert!(tokenize("select 'abc' from t").is_err()); // non-numeric literal
        assert!(tokenize("select 'unterminated").is_err());
    }

    #[test]
    fn parse_simple_select() {
        let s = parse("select v, b from B where b > 0.5").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.from.len(), 1);
        assert_eq!(sel.predicates.len(), 1);
    }

    /// Fig. 9a verbatim: the H² computation.
    #[test]
    fn parse_fig9a() {
        let s = parse(
            "create table H2 as select H1.c1, H2.c2, sum(H1.h*H2.h) as h \
             from H H1, H H2 where H1.c2 = H2.c1 group by H1.c1, H2.c2",
        )
        .unwrap();
        let Statement::CreateTableAs { name, query } = s else {
            panic!()
        };
        assert_eq!(name, "H2");
        assert_eq!(query.from.len(), 2);
        assert_eq!(query.group_by.len(), 2);
        assert!(matches!(
            query.items[2],
            SelectItem::Aggregate {
                fun: AggregateFun::Sum,
                ..
            }
        ));
    }

    /// Fig. 9b verbatim: top-belief assignment with a FROM subquery.
    #[test]
    fn parse_fig9b() {
        let s = parse(
            "(select B.v, B.c from B, (select B2.v, max(B2.b) as b from B B2 group by B2.v) as X \
             where B.v = X.v and B.b = X.b)",
        );
        // Outer parentheses around a bare SELECT are not a statement; strip
        // them like the paper's display and parse the inner statement.
        assert!(s.is_err());
        let inner = parse(
            "select B.v, B.c from B, (select B2.v, max(B2.b) as b from B B2 group by B2.v) as X \
             where B.v = X.v and B.b = X.b",
        )
        .unwrap();
        let Statement::Select(sel) = inner else {
            panic!()
        };
        assert!(matches!(&sel.from[1], TableRef::Subquery { alias, .. } if alias == "X"));
        assert_eq!(sel.predicates.len(), 2);
    }

    /// Fig. 9c verbatim: NOT IN anti-join with quoted numeric literals.
    #[test]
    fn parse_fig9c() {
        let s = parse(
            "insert into G (select A.s, '1' from G, A where G.v = A.s and G.g = '0' \
             and A.t not in (select G.v from G))",
        )
        .unwrap();
        let Statement::InsertSelect { table, query } = s else {
            panic!()
        };
        assert_eq!(table, "G");
        assert!(matches!(
            query.predicates.last(),
            Some(Predicate::InSubquery { negated: true, .. })
        ));
    }

    /// Fig. 9d verbatim: the upsert as DELETE + INSERT.
    #[test]
    fn parse_fig9d() {
        let script = parse_script(
            "delete from B where v in (select Bn.v from Bn); insert into B select * from Bn;",
        )
        .unwrap();
        assert_eq!(script.len(), 2);
        assert!(matches!(&script[0], Statement::Delete { .. }));
        let Statement::InsertSelect { query, .. } = &script[1] else {
            panic!()
        };
        assert!(matches!(query.items[0], SelectItem::Wildcard));
    }

    #[test]
    fn parse_arithmetic_precedence() {
        let s = parse("select a + b * c - 2 from T").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        // ((a + (b*c)) - 2)
        let Expr::Binary(lhs, '-', _) = expr else {
            panic!("{expr:?}")
        };
        let Expr::Binary(_, '+', mul) = lhs.as_ref() else {
            panic!()
        };
        assert!(matches!(mul.as_ref(), Expr::Binary(_, '*', _)));
    }

    #[test]
    fn parse_abs() {
        let sql = "select sum(abs(A.w * b)) as s from A where abs(b) <= 2e-13 * s";
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        assert!(
            matches!(&sel.predicates[0], Predicate::Compare(Expr::Abs(_), op, _) if op == "<=")
        );
        assert_eq!(sel.to_string(), sql.replace("2e-13", "0.0000000000002"));
        // A column named `abs` still parses when no `(` follows.
        assert!(parse("select abs from T").is_ok());
        assert!(parse("select abs(b from T").is_err());
    }

    #[test]
    fn parse_unary_minus() {
        let s = parse("select -b from T").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(&sel.items[0], SelectItem::Expr { .. }));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("select from T").is_err());
        assert!(parse("select a T").is_err());
        assert!(parse("delete B").is_err());
        assert!(parse("select a from T where a ==").is_err());
        assert!(parse("select a from T group a").is_err());
    }

    #[test]
    fn parse_explain() {
        let s = parse("explain select a from T where a = 1").unwrap();
        let Statement::Explain { query } = s else {
            panic!("{s:?}")
        };
        assert_eq!(query.items.len(), 1);
        assert_eq!(query.predicates.len(), 1);
        // EXPLAIN requires a SELECT.
        assert!(parse("explain drop table T").is_err());
    }

    #[test]
    fn parse_join_on_desugars_to_predicates() {
        let s = parse(
            "select A.t from A join B on A.s = B.v inner join H on B.c = H.c1 \
             where H.h > 0",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 3);
        // Two ON equalities first, then the WHERE comparison.
        assert_eq!(sel.predicates.len(), 3);
        assert!(matches!(&sel.predicates[0], Predicate::Compare(_, op, _) if op == "="));
        assert!(matches!(&sel.predicates[2], Predicate::Compare(_, op, _) if op == ">"));
        // A JOIN without ON is rejected.
        assert!(parse("select * from A join B").is_err());
    }

    #[test]
    fn column_refs_carry_byte_offsets() {
        let sql = "select a from T where T.b = 1";
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        let SelectItem::Expr {
            expr: Expr::Column(a),
            ..
        } = &sel.items[0]
        else {
            panic!()
        };
        assert_eq!(a.offset, Some(7));
        let Predicate::Compare(Expr::Column(b), _, _) = &sel.predicates[0] else {
            panic!()
        };
        assert_eq!(b.offset, Some(sql.find("T.b").unwrap()));
    }

    #[test]
    fn select_display_reparses_to_same_ast() {
        for sql in [
            "select B.v, B.c from B, (select B2.v, max(B2.b) as b from B B2 group by B2.v) as X \
             where B.v = X.v and B.b = X.b",
            "select A.s, sum(A.w * B.b) as b from A, B where A.s = B.v group by A.s",
            "select s from A where t not in (select v from G) and s > 0.5",
            "select v, c, 0 from Bn where abs(b) <= 2.2737367544323206e-13 * s",
        ] {
            let Statement::Select(sel) = parse(sql).unwrap() else {
                panic!()
            };
            let rendered = sel.to_string();
            let Statement::Select(again) = parse(&rendered).unwrap() else {
                panic!("rendered SQL failed to parse: {rendered}")
            };
            // Offsets shift between spellings; compare offset-free shapes.
            assert_eq!(format!("{again}"), rendered);
        }
    }

    #[test]
    fn drop_table() {
        assert!(matches!(
            parse("drop table Bn").unwrap(),
            Statement::DropTable { name } if name == "Bn"
        ));
    }

    #[test]
    fn lexer_errors_carry_byte_offsets() {
        // "select a from t %" — the '%' sits at byte 16.
        let err = tokenize("select a from t %").unwrap_err();
        assert_eq!(err.offset, Some(16));
        assert_eq!(
            err.to_string(),
            "SQL parse error: unexpected character '%' at byte 16"
        );

        // Multi-byte characters before the bad one (U+00A0 no-break
        // space): offsets are *byte* offsets, not char counts.
        let sql = "select\u{00A0}a from t %";
        let err = tokenize(sql).unwrap_err();
        assert_eq!(err.offset, Some(sql.find('%').unwrap()));

        let err = tokenize("select 'abc' from t").unwrap_err();
        assert_eq!(err.offset, Some(7)); // the opening quote
        let err = tokenize("select 1.2.3").unwrap_err();
        assert_eq!(err.offset, Some(7)); // start of the bad number
        let err = tokenize("select 'oops").unwrap_err();
        assert_eq!(err.offset, Some(7)); // the unterminated quote
    }

    #[test]
    fn parser_errors_carry_byte_offsets() {
        // The offending token (not just "somewhere in the statement").
        let err = parse("select a frm t").unwrap_err();
        assert_eq!(err.offset, Some(9)); // "frm"
        let err = parse("select a from t where a ==").unwrap_err();
        assert_eq!(err.offset, Some(25)); // the second '='
                                          // Exhausted input points at end-of-string.
        let err = parse("select a from").unwrap_err();
        assert_eq!(err.offset, Some(13));
        let err = parse("select a from t extra junk").unwrap_err();
        assert_eq!(err.offset, Some(22)); // "junk" (t..extra parse as table+alias)
    }

    #[test]
    fn script_errors_rebase_to_whole_script_offsets() {
        let script = "delete from B where v in (select Bn.v from Bn); select %";
        let err = parse_script(script).unwrap_err();
        assert_eq!(err.offset, Some(script.find('%').unwrap()));
        assert!(err
            .to_string()
            .ends_with(&format!("at byte {}", script.find('%').unwrap())));
    }
}
