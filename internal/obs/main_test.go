package obs

import (
	"testing"

	"shardingsphere/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
