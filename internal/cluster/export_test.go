package cluster

// LegacyLeaseMS exposes the lease_ms constant to the external tests.
const LegacyLeaseMS = legacyLeaseMS
