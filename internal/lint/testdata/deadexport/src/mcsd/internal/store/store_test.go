package store

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
