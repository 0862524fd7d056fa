"""Access-control policies: delegation trees, update checking, registry."""
