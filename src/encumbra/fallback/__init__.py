"""Key-recovery fallback: escrowed state, liveness trigger, release."""
