//! Fixture: a `macro_rules!` template is no fn body, but every expansion
//! runs its tokens in the serving path.

macro_rules! field {
    ($v:expr) => {
        match $v {
            Some(x) => x,
            None => panic!("missing field"),
        }
    };
}
