//! Token definitions produced by the [`lexer`](crate::lexer).
//!
//! Tokens are **zero-copy**: every textual payload is a `&'src str` slice
//! borrowing either the query input or, for the rare escape-bearing string
//! literal, the arena the lexer unescaped it into. `Token` is `Copy`, so the
//! token buffer itself can live in the same arena and the whole
//! tokenization of a query touches the global allocator zero times.

use std::fmt;

/// A structural SPARQL keyword.
///
/// Keywords are case-insensitive in SPARQL; the lexer normalizes them to this
/// enum. Identifiers that are not structural keywords (e.g. built-in function
/// names such as `LANG` or `REGEX`) are lexed as [`Token::Ident`] instead so
/// the expression parser can treat them uniformly as function calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants mirror the SPARQL keywords one-to-one
pub enum Keyword {
    Base,
    Prefix,
    Select,
    Ask,
    Construct,
    Describe,
    Where,
    From,
    Named,
    Distinct,
    Reduced,
    Order,
    By,
    Asc,
    Desc,
    Limit,
    Offset,
    Group,
    Having,
    Optional,
    Union,
    Filter,
    Graph,
    Minus,
    Bind,
    As,
    Values,
    Service,
    Silent,
    Undef,
    Exists,
    Not,
    In,
    Count,
    Sum,
    Min,
    Max,
    Avg,
    Sample,
    GroupConcat,
    Separator,
}

impl Keyword {
    /// Looks up a structural keyword from a raw (case-insensitive)
    /// identifier, without allocating: candidates are pre-bucketed by
    /// length, then byte-compared case-insensitively in place (the old
    /// implementation built an uppercased `String` per identifier — on the
    /// hot parse path, one heap round-trip for every word in every query).
    pub fn from_str_ci(s: &str) -> Option<Keyword> {
        const CANDIDATES_BY_LEN: [&[(&str, Keyword)]; 13] = [
            &[],
            &[],
            &[
                ("BY", Keyword::By),
                ("AS", Keyword::As),
                ("IN", Keyword::In),
            ],
            &[
                ("ASK", Keyword::Ask),
                ("ASC", Keyword::Asc),
                ("NOT", Keyword::Not),
                ("SUM", Keyword::Sum),
                ("MIN", Keyword::Min),
                ("MAX", Keyword::Max),
                ("AVG", Keyword::Avg),
            ],
            &[
                ("BASE", Keyword::Base),
                ("FROM", Keyword::From),
                ("DESC", Keyword::Desc),
                ("BIND", Keyword::Bind),
            ],
            &[
                ("WHERE", Keyword::Where),
                ("NAMED", Keyword::Named),
                ("ORDER", Keyword::Order),
                ("LIMIT", Keyword::Limit),
                ("GROUP", Keyword::Group),
                ("UNION", Keyword::Union),
                ("GRAPH", Keyword::Graph),
                ("MINUS", Keyword::Minus),
                ("UNDEF", Keyword::Undef),
                ("COUNT", Keyword::Count),
            ],
            &[
                ("PREFIX", Keyword::Prefix),
                ("SELECT", Keyword::Select),
                ("OFFSET", Keyword::Offset),
                ("HAVING", Keyword::Having),
                ("FILTER", Keyword::Filter),
                ("VALUES", Keyword::Values),
                ("SILENT", Keyword::Silent),
                ("EXISTS", Keyword::Exists),
                ("SAMPLE", Keyword::Sample),
            ],
            &[("REDUCED", Keyword::Reduced), ("SERVICE", Keyword::Service)],
            &[
                ("DESCRIBE", Keyword::Describe),
                ("DISTINCT", Keyword::Distinct),
                ("OPTIONAL", Keyword::Optional),
            ],
            &[
                ("CONSTRUCT", Keyword::Construct),
                ("SEPARATOR", Keyword::Separator),
            ],
            &[],
            &[],
            &[("GROUP_CONCAT", Keyword::GroupConcat)],
        ];
        let bucket = CANDIDATES_BY_LEN.get(s.len())?;
        bucket
            .iter()
            .find(|(name, _)| s.eq_ignore_ascii_case(name))
            .map(|&(_, keyword)| keyword)
    }
}

/// A single lexical token together with its kind-specific payload.
///
/// Payloads borrow the source string (`'src`); escape-bearing string
/// literals borrow the lexer's arena instead. The type is `Copy` so token
/// buffers can be arena-resident.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // punctuation variants are self-describing
pub enum Token<'src> {
    /// A structural keyword such as `SELECT` or `FILTER`.
    Keyword(Keyword),
    /// A non-structural identifier (built-in function names, e.g. `lang`).
    Ident(&'src str),
    /// The keyword `a` used as a predicate abbreviation for `rdf:type`.
    A,
    /// An IRI reference written in angle brackets, e.g. `<http://example.org/>`.
    /// The payload excludes the brackets.
    IriRef(&'src str),
    /// A prefixed name, split into (prefix, local part). `foaf:name` becomes
    /// `("foaf", "name")`; `:x` becomes `("", "x")`.
    PrefixedName(&'src str, &'src str),
    /// A prefix declaration namespace token, e.g. `foaf:` in a PREFIX clause.
    /// Lexed identically to [`Token::PrefixedName`] with an empty local part.
    /// (Kept distinct only conceptually; the lexer emits `PrefixedName`.)
    /// A variable, `?x` or `$x` — payload excludes the sigil.
    Var(&'src str),
    /// A blank node label `_:b0` — payload excludes the `_:` sigil.
    BlankNodeLabel(&'src str),
    /// A string literal, with quotes/escapes already processed. Escape-free
    /// literals borrow the input; escape-bearing ones borrow the arena copy
    /// the lexer unescaped into.
    String(&'src str),
    /// An integer literal (kept as text to preserve the original form).
    Integer(&'src str),
    /// A decimal literal.
    Decimal(&'src str),
    /// A double (floating point with exponent) literal.
    Double(&'src str),
    /// A boolean literal.
    Boolean(bool),
    /// A language tag following a string literal, e.g. `@en` (without `@`).
    LangTag(&'src str),
    /// `^^` datatype marker.
    DoubleCaret,
    /// `(` / `)`.
    LParen,
    RParen,
    /// `{` / `}`.
    LBrace,
    RBrace,
    /// `[` / `]`.
    LBracket,
    RBracket,
    /// `()` empty collection / NIL.
    Nil,
    /// `[]` anonymous blank node.
    Anon,
    /// `.` `,` `;`
    Dot,
    Comma,
    Semicolon,
    /// Property path / arithmetic operators.
    Pipe,
    Slash,
    Caret,
    Star,
    Plus,
    Minus,
    Question,
    Bang,
    /// Comparison / logic.
    Equal,
    NotEqual,
    Less,
    Greater,
    LessEq,
    GreaterEq,
    AndAnd,
    OrOr,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::A => write!(f, "a"),
            Token::IriRef(i) => write!(f, "<{i}>"),
            Token::PrefixedName(p, l) => write!(f, "{p}:{l}"),
            Token::Var(v) => write!(f, "?{v}"),
            Token::BlankNodeLabel(b) => write!(f, "_:{b}"),
            Token::String(s) => write!(f, "{s:?}"),
            Token::Integer(s) | Token::Decimal(s) | Token::Double(s) => write!(f, "{s}"),
            Token::Boolean(b) => write!(f, "{b}"),
            Token::LangTag(t) => write!(f, "@{t}"),
            Token::DoubleCaret => write!(f, "^^"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Nil => write!(f, "()"),
            Token::Anon => write!(f, "[]"),
            Token::Dot => write!(f, "."),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Pipe => write!(f, "|"),
            Token::Slash => write!(f, "/"),
            Token::Caret => write!(f, "^"),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Question => write!(f, "?"),
            Token::Bang => write!(f, "!"),
            Token::Equal => write!(f, "="),
            Token::NotEqual => write!(f, "!="),
            Token::Less => write!(f, "<"),
            Token::Greater => write!(f, ">"),
            Token::LessEq => write!(f, "<="),
            Token::GreaterEq => write!(f, ">="),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
        }
    }
}

/// The first byte of every token-stream serialization, and the end mark of
/// each text inside one: a byte that never occurs in UTF-8, so no log
/// entry's raw bytes can equal a serialized token stream and no text can
/// run into the next.
pub const TOKEN_STREAM_MARK: u8 = 0xFF;

impl Token<'_> {
    /// The token's kind, one byte below [`TOKEN_STREAM_MARK`]. The match has
    /// no wildcard, so a new variant cannot be left without a tag.
    fn tag(&self) -> u8 {
        match self {
            Token::Keyword(_) => 0,
            Token::Boolean(_) => 1,
            Token::Ident(_) => 2,
            Token::IriRef(_) => 3,
            Token::PrefixedName(_, _) => 4,
            Token::Var(_) => 5,
            Token::BlankNodeLabel(_) => 6,
            Token::String(_) => 7,
            Token::Integer(_) => 8,
            Token::Decimal(_) => 9,
            Token::Double(_) => 10,
            Token::LangTag(_) => 11,
            Token::A => 12,
            Token::DoubleCaret => 13,
            Token::LParen => 14,
            Token::RParen => 15,
            Token::LBrace => 16,
            Token::RBrace => 17,
            Token::LBracket => 18,
            Token::RBracket => 19,
            Token::Nil => 20,
            Token::Anon => 21,
            Token::Dot => 22,
            Token::Comma => 23,
            Token::Semicolon => 24,
            Token::Pipe => 25,
            Token::Slash => 26,
            Token::Caret => 27,
            Token::Star => 28,
            Token::Plus => 29,
            Token::Minus => 30,
            Token::Question => 31,
            Token::Bang => 32,
            Token::Equal => 33,
            Token::NotEqual => 34,
            Token::Less => 35,
            Token::Greater => 36,
            Token::LessEq => 37,
            Token::GreaterEq => 38,
            Token::AndAnd => 39,
            Token::OrOr => 40,
        }
    }
}

/// Appends the serialization of a token stream to `out`: the
/// [`TOKEN_STREAM_MARK`], then per token its tag byte followed by its
/// payload — a keyword or boolean as one byte, each text as its UTF-8 bytes
/// closed by the mark. Spans are left out. Tag and mark make the encoding
/// injective: equal serializations mean equal token values.
pub fn serialize_tokens(tokens: &[Spanned<'_>], out: &mut Vec<u8>) {
    fn text(out: &mut Vec<u8>, text: &str) {
        out.extend_from_slice(text.as_bytes());
        out.push(TOKEN_STREAM_MARK);
    }
    out.push(TOKEN_STREAM_MARK);
    for spanned in tokens {
        let token = &spanned.token;
        out.push(token.tag());
        match *token {
            Token::Keyword(keyword) => out.push(keyword as u8),
            Token::Boolean(value) => out.push(u8::from(value)),
            Token::PrefixedName(prefix, local) => {
                text(out, prefix);
                text(out, local);
            }
            Token::Ident(s)
            | Token::IriRef(s)
            | Token::Var(s)
            | Token::BlankNodeLabel(s)
            | Token::String(s)
            | Token::Integer(s)
            | Token::Decimal(s)
            | Token::Double(s)
            | Token::LangTag(s) => text(out, s),
            _ => {}
        }
    }
}

/// The 128-bit key of a token stream: [`hash128`](crate::bytescan::hash128)
/// of its [serialization](serialize_tokens), built in `buffer`. Keywords
/// arrive case-folded and whitespace and comments are not tokens, so
/// entries that differ only in layout share a key.
pub fn token_key(tokens: &[Spanned<'_>], buffer: &mut Vec<u8>) -> u128 {
    buffer.clear();
    serialize_tokens(tokens, buffer);
    crate::bytescan::hash128(buffer)
}

/// A token annotated with its position in the input (byte offset, line, column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'src> {
    /// The token itself.
    pub token: Token<'src>,
    /// Byte offset of the first character of the token.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every keyword, in declaration order (index = discriminant).
    const KEYWORDS: [Keyword; 41] = [
        Keyword::Base,
        Keyword::Prefix,
        Keyword::Select,
        Keyword::Ask,
        Keyword::Construct,
        Keyword::Describe,
        Keyword::Where,
        Keyword::From,
        Keyword::Named,
        Keyword::Distinct,
        Keyword::Reduced,
        Keyword::Order,
        Keyword::By,
        Keyword::Asc,
        Keyword::Desc,
        Keyword::Limit,
        Keyword::Offset,
        Keyword::Group,
        Keyword::Having,
        Keyword::Optional,
        Keyword::Union,
        Keyword::Filter,
        Keyword::Graph,
        Keyword::Minus,
        Keyword::Bind,
        Keyword::As,
        Keyword::Values,
        Keyword::Service,
        Keyword::Silent,
        Keyword::Undef,
        Keyword::Exists,
        Keyword::Not,
        Keyword::In,
        Keyword::Count,
        Keyword::Sum,
        Keyword::Min,
        Keyword::Max,
        Keyword::Avg,
        Keyword::Sample,
        Keyword::GroupConcat,
        Keyword::Separator,
    ];

    /// Every token without a payload, in tag order (tags 12..=40).
    const PLAIN: [Token<'static>; 29] = [
        Token::A,
        Token::DoubleCaret,
        Token::LParen,
        Token::RParen,
        Token::LBrace,
        Token::RBrace,
        Token::LBracket,
        Token::RBracket,
        Token::Nil,
        Token::Anon,
        Token::Dot,
        Token::Comma,
        Token::Semicolon,
        Token::Pipe,
        Token::Slash,
        Token::Caret,
        Token::Star,
        Token::Plus,
        Token::Minus,
        Token::Question,
        Token::Bang,
        Token::Equal,
        Token::NotEqual,
        Token::Less,
        Token::Greater,
        Token::LessEq,
        Token::GreaterEq,
        Token::AndAnd,
        Token::OrOr,
    ];

    /// Reads a serialization back into token values: that this inverts
    /// [`serialize_tokens`] is what makes the encoding injective.
    fn deserialize(bytes: &[u8]) -> Vec<Token<'_>> {
        assert_eq!(bytes.first(), Some(&TOKEN_STREAM_MARK));
        let mut tokens = Vec::new();
        let mut rest = &bytes[1..];
        while let Some((&tag, tail)) = rest.split_first() {
            rest = tail;
            let mut text = || {
                let end = rest
                    .iter()
                    .position(|&b| b == TOKEN_STREAM_MARK)
                    .expect("every text is closed by the mark");
                let text = std::str::from_utf8(&rest[..end]).expect("texts are UTF-8");
                rest = &rest[end + 1..];
                text
            };
            let token = match tag {
                0 | 1 => {
                    let (&value, tail) = rest.split_first().expect("one payload byte");
                    rest = tail;
                    if tag == 0 {
                        Token::Keyword(KEYWORDS[usize::from(value)])
                    } else {
                        assert!(value <= 1, "boolean byte {value}");
                        Token::Boolean(value == 1)
                    }
                }
                2 => Token::Ident(text()),
                3 => Token::IriRef(text()),
                4 => Token::PrefixedName(text(), text()),
                5 => Token::Var(text()),
                6 => Token::BlankNodeLabel(text()),
                7 => Token::String(text()),
                8 => Token::Integer(text()),
                9 => Token::Decimal(text()),
                10 => Token::Double(text()),
                11 => Token::LangTag(text()),
                _ => PLAIN[usize::from(tag) - 12],
            };
            tokens.push(token);
        }
        tokens
    }

    fn spanned<'a>(tokens: &[Token<'a>], offset: usize) -> Vec<Spanned<'a>> {
        tokens
            .iter()
            .enumerate()
            .map(|(i, &token)| Spanned {
                token,
                offset: offset + i,
                line: 1 + (offset % 7) as u32,
                column: 1 + i as u32,
            })
            .collect()
    }

    fn serialized(tokens: &[Token<'_>], offset: usize) -> Vec<u8> {
        let mut out = Vec::new();
        serialize_tokens(&spanned(tokens, offset), &mut out);
        out
    }

    #[test]
    fn tags_and_discriminants_are_what_the_decoder_reads() {
        for (i, keyword) in KEYWORDS.iter().enumerate() {
            assert_eq!(*keyword as usize, i, "{keyword:?}");
        }
        for (i, token) in PLAIN.iter().enumerate() {
            assert_eq!(usize::from(token.tag()), 12 + i, "{token:?}");
        }
        // Texts that run together without their end marks stay apart.
        let pairs: [(&[Token], &[Token]); 3] = [
            (
                &[Token::PrefixedName("ab", "c")],
                &[Token::PrefixedName("a", "bc")],
            ),
            (&[Token::Var("x"), Token::Dot], &[Token::Var("x.")]),
            // Dot's tag is 0x16.
            (
                &[Token::String("a"), Token::Dot],
                &[Token::String("a\u{16}")],
            ),
        ];
        for (a, b) in pairs {
            assert_ne!(serialized(a, 0), serialized(b, 0), "{a:?} vs {b:?}");
        }
    }

    /// Draws a token of any kind: `kind` picks the variant (the tag),
    /// `text` is arbitrary Unicode scalars, `pick` a keyword, a boolean or
    /// where a prefixed name splits.
    fn token_of(kind: usize, text: &str, pick: usize) -> Token<'_> {
        let split = text
            .char_indices()
            .map(|(at, _)| at)
            .nth(pick)
            .unwrap_or(text.len());
        match kind {
            0 => Token::Keyword(KEYWORDS[pick % KEYWORDS.len()]),
            1 => Token::Boolean(pick % 2 == 1),
            2 => Token::Ident(text),
            3 => Token::IriRef(text),
            4 => Token::PrefixedName(&text[..split], &text[split..]),
            5 => Token::Var(text),
            6 => Token::BlankNodeLabel(text),
            7 => Token::String(text),
            8 => Token::Integer(text),
            9 => Token::Decimal(text),
            10 => Token::Double(text),
            11 => Token::LangTag(text),
            _ => PLAIN[kind - 12],
        }
    }

    type Draw = (usize, Vec<u32>, usize);

    fn texts(draws: &[Draw]) -> Vec<String> {
        draws
            .iter()
            .map(|(_, codes, _)| codes.iter().filter_map(|&c| char::from_u32(c)).collect())
            .collect()
    }

    fn tokens<'a>(draws: &[Draw], texts: &'a [String]) -> Vec<Token<'a>> {
        draws
            .iter()
            .zip(texts)
            .map(|(&(kind, _, pick), text)| token_of(kind, text, pick))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The serialization starts with a byte no UTF-8 text holds, reads
        /// back to the very token values (so it is injective), ignores
        /// spans, and two streams share a key exactly when their values
        /// are equal.
        #[test]
        fn token_keys_are_injective(
            a in prop::collection::vec((0usize..41, prop::collection::vec(0u32..0x11_0000, 0..5), 0usize..41), 0..24),
            b in prop::collection::vec((0usize..41, prop::collection::vec(0u32..0x11_0000, 0..5), 0usize..41), 0..24),
            offset in 0usize..1000,
        ) {
            let (texts_a, texts_b) = (texts(&a), texts(&b));
            let (a, b) = (tokens(&a, &texts_a), tokens(&b, &texts_b));
            let bytes = serialized(&a, 0);
            prop_assert_eq!(bytes[0], TOKEN_STREAM_MARK);
            prop_assert!(std::str::from_utf8(&bytes).is_err());
            prop_assert_eq!(deserialize(&bytes), a.clone());
            prop_assert_eq!(&serialized(&a, offset), &bytes);
            let mut buffer = Vec::new();
            let key = |tokens: &[Token<'_>], buffer: &mut Vec<u8>| token_key(&spanned(tokens, offset), buffer);
            let (key_a, key_b) = (key(&a, &mut buffer), key(&b, &mut buffer));
            prop_assert_eq!(key_a == key_b, a == b);
            // A prefix of a stream is another stream, with another key.
            if !a.is_empty() {
                prop_assert!(key(&a[..a.len() - 1], &mut buffer) != key_a);
            }
        }
    }

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::from_str_ci("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str_ci("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str_ci("OPTIONAL"), Some(Keyword::Optional));
        assert_eq!(
            Keyword::from_str_ci("group_concat"),
            Some(Keyword::GroupConcat)
        );
        assert_eq!(Keyword::from_str_ci("lang"), None);
        assert_eq!(Keyword::from_str_ci("regex"), None);
        assert_eq!(Keyword::from_str_ci(""), None);
        assert_eq!(Keyword::from_str_ci("averylongidentifierindeed"), None);
    }

    #[test]
    fn every_keyword_round_trips_through_the_bucketed_lookup() {
        // The length buckets must cover all 40 variants; a variant filed
        // under the wrong length would silently stop lexing as a keyword.
        for keyword in [
            (Keyword::Base, "BASE"),
            (Keyword::Prefix, "PREFIX"),
            (Keyword::Select, "SELECT"),
            (Keyword::Ask, "ASK"),
            (Keyword::Construct, "CONSTRUCT"),
            (Keyword::Describe, "DESCRIBE"),
            (Keyword::Where, "WHERE"),
            (Keyword::From, "FROM"),
            (Keyword::Named, "NAMED"),
            (Keyword::Distinct, "DISTINCT"),
            (Keyword::Reduced, "REDUCED"),
            (Keyword::Order, "ORDER"),
            (Keyword::By, "BY"),
            (Keyword::Asc, "ASC"),
            (Keyword::Desc, "DESC"),
            (Keyword::Limit, "LIMIT"),
            (Keyword::Offset, "OFFSET"),
            (Keyword::Group, "GROUP"),
            (Keyword::Having, "HAVING"),
            (Keyword::Optional, "OPTIONAL"),
            (Keyword::Union, "UNION"),
            (Keyword::Filter, "FILTER"),
            (Keyword::Graph, "GRAPH"),
            (Keyword::Minus, "MINUS"),
            (Keyword::Bind, "BIND"),
            (Keyword::As, "AS"),
            (Keyword::Values, "VALUES"),
            (Keyword::Service, "SERVICE"),
            (Keyword::Silent, "SILENT"),
            (Keyword::Undef, "UNDEF"),
            (Keyword::Exists, "EXISTS"),
            (Keyword::Not, "NOT"),
            (Keyword::In, "IN"),
            (Keyword::Count, "COUNT"),
            (Keyword::Sum, "SUM"),
            (Keyword::Min, "MIN"),
            (Keyword::Max, "MAX"),
            (Keyword::Avg, "AVG"),
            (Keyword::Sample, "SAMPLE"),
            (Keyword::GroupConcat, "GROUP_CONCAT"),
        ] {
            assert_eq!(Keyword::from_str_ci(keyword.1), Some(keyword.0));
            assert_eq!(
                Keyword::from_str_ci(&keyword.1.to_ascii_lowercase()),
                Some(keyword.0)
            );
        }
        assert_eq!(Keyword::from_str_ci("SEPARATOR"), Some(Keyword::Separator));
    }

    #[test]
    fn token_display_roundtrips_punctuation() {
        assert_eq!(Token::DoubleCaret.to_string(), "^^");
        assert_eq!(Token::NotEqual.to_string(), "!=");
        assert_eq!(Token::Nil.to_string(), "()");
        assert_eq!(Token::PrefixedName("foaf", "name").to_string(), "foaf:name");
    }
}
