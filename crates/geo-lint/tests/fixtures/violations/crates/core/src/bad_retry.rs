//! Fixture: an unbounded retry loop (R3) next to a properly bounded one.

pub fn retry_forever() {
    loop {
        match ping() {
            Err(ApiFault::ServerError) => continue,
            _ => break,
        }
    }
}

pub fn retry_bounded() {
    let mut attempt = 0;
    loop {
        attempt += 1;
        if attempt >= 4 {
            break;
        }
        match ping() {
            Err(ApiFault::Timeout) => continue,
            _ => break,
        }
    }
}
