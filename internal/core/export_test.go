package core

import "shardingsphere/internal/transaction"

// SetTransactionType switches the session's transaction type, as SET
// VARIABLE transaction_type does.
func (s *Session) SetTransactionType(t transaction.Type) { s.txType = t }
