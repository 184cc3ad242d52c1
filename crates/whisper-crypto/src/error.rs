use std::error::Error;
use std::fmt;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// The message is too large for the RSA modulus after padding.
    MessageTooLong {
        /// Size of the message that was submitted, in bytes.
        message_len: usize,
        /// Maximum payload the modulus can carry, in bytes.
        max_len: usize,
    },
    /// A ciphertext (or signature) did not decode to a validly padded block.
    InvalidPadding,
    /// A ciphertext value was numerically out of range for the modulus.
    CiphertextOutOfRange,
    /// A signature failed verification.
    BadSignature,
    /// An onion layer was malformed or was encrypted for a different key.
    MalformedOnion(&'static str),
    /// A sealed layer was shorter than one RSA block, or its block did not
    /// carry a session secret.
    MalformedSealedLayer,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::MessageTooLong { message_len, max_len } => write!(
                f,
                "message of {message_len} bytes exceeds the {max_len}-byte capacity of the modulus"
            ),
            CryptoError::InvalidPadding => write!(f, "invalid PKCS#1-style padding"),
            CryptoError::CiphertextOutOfRange => {
                write!(f, "ciphertext is not smaller than the modulus")
            }
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::MalformedOnion(what) => write!(f, "malformed onion layer: {what}"),
            CryptoError::MalformedSealedLayer => write!(f, "malformed sealed layer"),
        }
    }
}

impl Error for CryptoError {}
